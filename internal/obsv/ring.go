package obsv

import "sync/atomic"

// DefaultRingSize bounds retained finished spans when the caller does not
// choose: 4096 records cover several seconds of traffic at realistic
// request rates while holding memory constant.
const DefaultRingSize = 4096

// SpanRing is a bounded lock-free buffer of finished span records.
// Writers claim slots with one atomic increment and publish with one
// atomic pointer store, so the hot path never takes a lock; readers
// snapshot by walking the slots backwards from the cursor. Records must
// be treated as immutable once Put.
type SpanRing struct {
	slots []atomic.Pointer[SpanRecord]
	// cursor counts total Puts; slot index is cursor mod len(slots).
	cursor atomic.Uint64
}

// NewSpanRing builds a ring retaining up to n records (<=0 selects
// DefaultRingSize).
func NewSpanRing(n int) *SpanRing {
	if n <= 0 {
		n = DefaultRingSize
	}
	return &SpanRing{slots: make([]atomic.Pointer[SpanRecord], n)}
}

// Put publishes one finished record, evicting the oldest when full.
func (r *SpanRing) Put(rec *SpanRecord) {
	if r == nil || rec == nil {
		return
	}
	i := r.cursor.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(rec)
}

// Snapshot returns up to limit records, newest first (limit<=0 means
// all retained). When traceID is nonzero only that trace's records are
// returned. Concurrent Puts may race individual slots; each record read
// is still internally consistent because slots hold immutable pointers.
func (r *SpanRing) Snapshot(limit int, traceID uint64) []SpanRecord {
	if r == nil {
		return nil
	}
	size := uint64(len(r.slots))
	end := r.cursor.Load()
	span := min(size, end)
	if limit <= 0 || uint64(limit) > size {
		limit = int(size)
	}
	out := make([]SpanRecord, 0, min(limit, int(span)))
	for off := uint64(0); off < span && len(out) < limit; off++ {
		rec := r.slots[(end-1-off)%size].Load()
		if rec != nil && (traceID == 0 || rec.TraceID == traceID) {
			out = append(out, *rec)
		}
	}
	return out
}
