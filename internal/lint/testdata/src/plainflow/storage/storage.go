// Package storage is a mwslint fixture shaped like the real
// storage.Provider layer: calls into it from other packages are
// plainflow storage sinks, exactly like the wal fixtures.
package storage

// Put persists one record.
func Put(rec []byte) error { _ = rec; return nil }

// Audit journals an entry alongside the records.
func Audit(entry []byte) { _ = entry }

// Message mirrors the provider's record shape.
type Message struct {
	DeviceID   string
	Ciphertext []byte
}

// Append persists one message through the provider.
func Append(deviceID string, payload []byte) (uint64, error) {
	_ = deviceID
	_ = payload
	return 0, nil
}

// KV is a provider-managed key/value partition.
type KV struct{}

// Put writes one entry into the partition.
func (kv *KV) Put(key string, val []byte) error {
	_ = key
	_ = val
	return nil
}
