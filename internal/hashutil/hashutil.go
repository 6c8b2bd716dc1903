// Package hashutil provides the 64-bit FNV-1a hash used across the
// system: the plan cache fingerprints canonical query-graph text with
// the streaming Hash64, and relation.HashJoinKey hashes string join keys
// with it. It matches the stdlib hash/fnv parameters exactly; keeping
// one local implementation avoids the stdlib's interface allocation on
// the executor's per-row hot path while guaranteeing the callers can
// never drift apart.
package hashutil

// FNV-1a parameters (Fowler–Noll–Vo).
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Sum64 returns the 64-bit FNV-1a hash of b.
func Sum64(b []byte) uint64 {
	h := New64()
	h.Write(b)
	return h.Sum64()
}

// Hash64 is a streaming 64-bit FNV-1a hasher. The zero value is NOT
// ready to use; construct with New64.
type Hash64 uint64

// New64 returns a streaming 64-bit FNV-1a hasher seeded with the
// canonical offset basis.
func New64() *Hash64 {
	h := Hash64(offset64)
	return &h
}

// Write mixes b into the hash.
func (h *Hash64) Write(b []byte) {
	x := uint64(*h)
	for _, c := range b {
		x ^= uint64(c)
		x *= prime64
	}
	*h = Hash64(x)
}

// WriteString mixes s into the hash without allocating.
func (h *Hash64) WriteString(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= prime64
	}
	*h = Hash64(x)
}

// WriteByte mixes a single byte into the hash. It is used as a field
// separator so that adjacent fields cannot collide by concatenation.
func (h *Hash64) WriteByte(c byte) error {
	x := uint64(*h)
	x ^= uint64(c)
	x *= prime64
	*h = Hash64(x)
	return nil
}

// Sum64 returns the current hash value.
func (h *Hash64) Sum64() uint64 { return uint64(*h) }
