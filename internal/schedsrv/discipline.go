package schedsrv

// fifo is the seed server's behaviour, extracted: one queue, strict
// arrival order, demand and speculative traffic indistinguishable.
//
// index accelerates Promote from a backlog scan to a map lookup: clients
// hold at most one outstanding transfer per page, so (client, page)
// identifies the queued speculative request uniquely. The index is pure
// acceleration — it only ever locates the same request the scan would —
// and if a duplicate key is ever pushed (an invariant no current caller
// violates), the fifo permanently falls back to the scan rather than
// risk promoting the wrong instance.
type fifo struct {
	queue []*Request
	index map[uint64]*Request // queued speculative requests by (client, page)
	scan  bool                // duplicate key seen: index abandoned, scan instead
}

func newFIFO() *fifo { return &fifo{} }

func (f *fifo) Name() string { return string(KindFIFO) }

// promoteKey packs (client, page) into the index key.
func promoteKey(client, page int) uint64 {
	return uint64(uint32(client))<<32 | uint64(uint32(page))
}

func (f *fifo) Push(r *Request) {
	f.queue = append(f.queue, r)
	if r.Demand || f.scan {
		return
	}
	k := promoteKey(r.Client, r.Page)
	if f.index == nil {
		f.index = map[uint64]*Request{}
	} else if _, dup := f.index[k]; dup {
		f.scan = true
		f.index = nil // stale acceleration state must not outlive the fallback
		return
	}
	f.index[k] = r
}

func (f *fifo) Pop(now float64) (*Request, bool) {
	if len(f.queue) == 0 {
		return nil, false
	}
	r := f.queue[0]
	f.queue[0] = nil
	f.queue = f.queue[1:]
	if !r.Demand && !f.scan {
		delete(f.index, promoteKey(r.Client, r.Page))
	}
	return r, true
}

func (f *fifo) ReadyAt(now float64) (float64, bool) {
	if len(f.queue) == 0 {
		return 0, false
	}
	return now, true
}

// Promote finds the queued speculative request and marks it demand class
// for accounting, but deliberately does not reorder: FIFO serves arrival
// order, which keeps the extracted discipline identical to the seed.
func (f *fifo) Promote(client, page int) bool {
	if !f.scan {
		if r, ok := f.index[promoteKey(client, page)]; ok {
			r.Demand = true
			delete(f.index, promoteKey(client, page))
			return true
		}
		return false
	}
	for _, r := range f.queue {
		if !r.Demand && r.Client == client && r.Page == page {
			r.Demand = true
			return true
		}
	}
	return false
}

func (f *fifo) Len() int { return len(f.queue) }

// priority is strict demand priority: two FIFO queues, and a slot never
// serves speculative work while any demand request is queued.
type priority struct {
	demand []*Request
	spec   []*Request
}

func newPriority() *priority { return &priority{} }

func (p *priority) Name() string { return string(KindPriority) }

func (p *priority) Push(r *Request) {
	if r.Demand {
		p.demand = append(p.demand, r)
	} else {
		p.spec = append(p.spec, r)
	}
}

func (p *priority) Pop(now float64) (*Request, bool) {
	if len(p.demand) > 0 {
		r := p.demand[0]
		p.demand[0] = nil
		p.demand = p.demand[1:]
		return r, true
	}
	if len(p.spec) > 0 {
		r := p.spec[0]
		p.spec[0] = nil
		p.spec = p.spec[1:]
		return r, true
	}
	return nil, false
}

func (p *priority) ReadyAt(now float64) (float64, bool) {
	if len(p.demand)+len(p.spec) == 0 {
		return 0, false
	}
	return now, true
}

// Promote moves the queued speculative request for (client, page) to the
// back of the demand queue: the demand for it arrived just now, so it
// queues behind demands that arrived earlier.
func (p *priority) Promote(client, page int) bool {
	for i, r := range p.spec {
		if r.Client == client && r.Page == page {
			copy(p.spec[i:], p.spec[i+1:])
			p.spec[len(p.spec)-1] = nil
			p.spec = p.spec[:len(p.spec)-1]
			r.Demand = true
			p.demand = append(p.demand, r)
			return true
		}
	}
	return false
}

// requeueFront takes back a preempted speculative transfer at the head of
// the speculative queue, where it conceptually came from. The queue shifts
// in place, so a preemption allocates only when the queue outgrows its
// capacity.
func (p *priority) requeueFront(r *Request) {
	p.spec = append(p.spec, nil)
	copy(p.spec[1:], p.spec)
	p.spec[0] = r
}

func (p *priority) Len() int { return len(p.demand) + len(p.spec) }
