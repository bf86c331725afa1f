package schedsrv

// fifo is the seed server's behaviour, extracted: one queue, strict
// arrival order, demand and speculative traffic indistinguishable.
//
// chains makes Promote independent of the backlog's length: each
// client's queued speculative requests form an intrusive list in arrival
// order (Request.prev/next), indexed by the dense Request.Client. Push
// appends to the client's tail and Pop or Promote unlinks in O(1).
// Promote walks the client's chain from its oldest entry, so it marks
// exactly the request a scan of the queue would find first.
type fifo struct {
	queue  []*Request
	chains []chain // queued speculative requests per client
}

// chain bounds one client's promote chain, oldest first.
type chain struct{ head, tail *Request }

func newFIFO() *fifo { return &fifo{} }

func (f *fifo) Name() string { return string(KindFIFO) }

func (f *fifo) Push(r *Request) {
	f.queue = append(f.queue, r)
	if r.Demand {
		return
	}
	if r.Client >= len(f.chains) {
		f.chains = append(f.chains, make([]chain, r.Client+1-len(f.chains))...)
	}
	ch := &f.chains[r.Client]
	r.prev, r.next = ch.tail, nil
	if ch.tail != nil {
		ch.tail.next = r
	} else {
		ch.head = r
	}
	ch.tail = r
}

// unchain removes a queued speculative request from its client's chain.
func (f *fifo) unchain(r *Request) {
	ch := &f.chains[r.Client]
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		ch.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		ch.tail = r.prev
	}
	r.prev, r.next = nil, nil
}

func (f *fifo) Pop(now float64) (*Request, bool) {
	if len(f.queue) == 0 {
		return nil, false
	}
	r := f.queue[0]
	f.queue[0] = nil
	f.queue = f.queue[1:]
	if !r.Demand {
		f.unchain(r)
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
	if uint(client) >= uint(len(f.chains)) {
		return false
	}
	for r := f.chains[client].head; r != nil; r = r.next {
		if r.Page == page {
			r.Demand = true
			f.unchain(r)
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
