package sim

// eventQueue is the engine's pending-event priority queue. Ordering is by
// (time, seq): nondecreasing time, FIFO within a time. The engine runs on
// the bucketed calendar queue (calendar.go); the tests substitute the
// original container/heap binary heap (heap_test.go) as a differential
// oracle. Both hold canceled events (fn == nil) until popped or
// compacted; the Engine owns that lazy-deletion accounting.
type eventQueue interface {
	// push inserts an event. The queue owns ev.next until the event is
	// popped or recycled.
	push(ev *event)
	// peek returns the minimum event without removing it, or nil when
	// empty. peek may reposition internal cursors but never reorders.
	peek() *event
	// pop removes and returns the minimum event, or nil when empty.
	pop() *event
	// len returns the number of stored events, canceled included.
	len() int
	// compact removes every canceled event in one pass, handing each to
	// recycle. Relative order of live events is unaffected.
	compact(recycle func(*event))
}

func eventLess(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}
