// Package store is the deadexport fixture's library, shaped like the
// storage engine: an interface with one implementation, a buffer the
// standard library writes to, and functions only a test or an
// experiment calls.
package store

// Reader is what the tool reads through.
type Reader interface {
	Get(key string) string
	Keys() []string // want "func .store.Reader..Keys.. .]string is exported but no production code uses it"
}

// mem is Reader's one implementation: Get is used through the
// interface, Keys by nobody.
type mem struct{}

func (mem) Get(key string) string { return key }
func (mem) Keys() []string        { return nil } // want "func .store.mem..Keys.. .]string is exported"

// New returns the one Reader.
func New() Reader { return mem{} }

// Buf is used only as an io.Writer, by fmt.
type Buf struct{ n int }

func (b *Buf) Write(p []byte) (int, error) {
	b.n += len(p)
	return len(p), nil
}

// Queue.Len is called; Counter.Len, alike in name, is not.
type Queue struct{}

func (Queue) Len() int { return 0 }

type Counter struct{}

func (Counter) Len() int { return 0 } // want "func .store.Counter..Len.. int is exported"

// Frame is what a Handler answers with; svc implements Handler in a
// package that sees Frame through export data.
type Frame struct{ Op int }

type Handler interface {
	Handle(f Frame) Frame
}

// Serve drives h once.
func Serve(h Handler) Frame { return h.Handle(Frame{}) }

func OnlyTested() int { return 1 } // want "func store.OnlyTested.. int is exported"

func OnlyExperiments() int { return 2 } // want "func store.OnlyExperiments.. int is exported"

// MustField is on the allow-list: a panicking constructor shared by
// tests.
func MustField() int { return 3 }
