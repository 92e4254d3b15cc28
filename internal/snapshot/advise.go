package snapshot

import "fmt"

// Advice is a page-cache preload hint applied to a mapped v2 snapshot
// right after Open. The kernel pages a mapping in lazily on first touch;
// under page-cache pressure that lazy fault storm lands on the first
// queries after an activation and shows up as cold-start p99. The hints
// let the operator trade a little read-ahead I/O for warmer first queries:
//
//   - "willneed" asks the kernel to start reading the whole region in —
//     right when the snapshot comfortably fits the page cache and the
//     corpus is about to take traffic;
//   - "random" disables read-ahead — right when the snapshot dwarfs the
//     cache and queries touch scattered records, where read-ahead only
//     evicts pages other queries still need.
type Advice string

const (
	// AdviseNone applies no hint (the default kernel behavior).
	AdviseNone Advice = ""
	// AdviseWillNeed hints the whole region will be needed soon
	// (MADV_WILLNEED): the kernel begins paging it in asynchronously.
	AdviseWillNeed Advice = "willneed"
	// AdviseRandom hints accesses are random (MADV_RANDOM): the kernel
	// stops read-ahead, keeping cold snapshots from flushing the cache.
	AdviseRandom Advice = "random"
)

// ParseAdvice validates the -madvise flag grammar; "" and "none" both mean
// no hint.
func ParseAdvice(s string) (Advice, error) {
	if s == "none" {
		return AdviseNone, nil
	}
	switch Advice(s) {
	case AdviseNone, AdviseWillNeed, AdviseRandom:
		return Advice(s), nil
	}
	return AdviseNone, fmt.Errorf("snapshot: unknown madvise %q (want willneed or random)", s)
}

// Advise applies the hint to the handle's mapped region. It is a no-op
// (nil) for in-memory handles (FromMappings, OpenBytes), closed handles, and platforms
// without madvise — the hint is best-effort by design, so serving never
// depends on it.
func (h *Handle) Advise(a Advice) error {
	if a == AdviseNone || !h.mapped || len(h.data) == 0 || h.closed.Load() {
		return nil
	}
	return madvise(h.data, a)
}
