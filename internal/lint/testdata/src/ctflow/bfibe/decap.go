package bfibe

// Encapsulation and Decapsulator mirror the real KEM's receiving side:
// the keys Decapsulate and DecapsulateBatch return are session keys by
// the callee's name, one key or a batch of them, whatever the body does.
type Encapsulation struct{}

type Decapsulator struct{}

func (d *Decapsulator) Decapsulate(enc *Encapsulation, keyLen int) ([]byte, error) {
	return make([]byte, keyLen), nil
}

func DecapsulateBatch(ds []*Decapsulator, encs []*Encapsulation, keyLens []int) ([][]byte, []error) {
	return make([][]byte, len(encs)), make([]error, len(encs))
}
