package sim

import "container/heap"

// newHeapEngine returns an engine backed by the binary-heap oracle the
// calendar queue replaced; the differential and fuzz tests in
// calendar_test.go run it side by side with NewEngine.
func newHeapEngine() *Engine { return &Engine{q: &heapQueue{}} }

// heapQueue adapts the original binary-heap implementation to eventQueue.
type heapQueue struct {
	h eventHeap
}

func (q *heapQueue) push(ev *event) { heap.Push(&q.h, ev) }

func (q *heapQueue) peek() *event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *heapQueue) pop() *event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}

func (q *heapQueue) len() int { return len(q.h) }

func (q *heapQueue) compact(recycle func(*event)) {
	live := q.h[:0]
	for _, ev := range q.h {
		if ev.fn == nil {
			recycle(ev)
		} else {
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(q.h); i++ {
		q.h[i] = nil
	}
	q.h = live
	heap.Init(&q.h)
}

type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
