package sim

// Server models a serial resource with FIFO queueing: an embedded
// controller, a flash channel, a CPU core. Work submitted while the server
// is busy queues behind the in-flight job; completion callbacks fire in
// submission order. This is the primitive that makes centralized control
// planes saturate realistically in the experiments.
type Server struct {
	eng *Engine
	// busyUntil is the virtual time at which the server drains all
	// currently accepted work.
	busyUntil Time
	// Busy time accumulated, for utilization accounting.
	busyTotal Duration
	jobs      uint64
	// finishes holds the completion times of accepted-but-unfinished
	// jobs, pruned lazily on access. It feeds Pending() — the queue
	// depth overload audits check against bounds — without scheduling
	// any events of its own, so traces are unchanged.
	finishes []Time
}

// NewServer returns an idle server on the given engine.
func NewServer(eng *Engine) *Server { return &Server{eng: eng} }

// Submit enqueues a job with the given service time and schedules done at
// its completion. It returns the completion time.
func (s *Server) Submit(service Duration, done func()) Time {
	if done == nil {
		return s.SubmitEvent(service, nil)
	}
	return s.SubmitEvent(service, funcEvent(done))
}

// SubmitEvent is Submit for a job whose completion is an event object
// (nil charges the service time and fires nothing).
func (s *Server) SubmitEvent(service Duration, done Event) Time {
	if service < 0 {
		service = 0
	}
	start := s.eng.Now()
	if s.busyUntil > start {
		start = s.busyUntil
	}
	finish := start.Add(service)
	s.busyUntil = finish
	s.busyTotal += service
	s.jobs++
	s.prune()
	s.finishes = append(s.finishes, finish)
	if done != nil {
		s.eng.push(finish, done)
	}
	return finish
}

// prune drops completion records for jobs already finished. finishes is
// sorted (FIFO completion order), so the live suffix starts at the first
// entry past now.
func (s *Server) prune() {
	now := s.eng.Now()
	i := 0
	for i < len(s.finishes) && s.finishes[i] <= now {
		i++
	}
	if i > 0 {
		s.finishes = append(s.finishes[:0], s.finishes[i:]...)
	}
}

// Pending reports the number of accepted jobs not yet finished (the one
// in service plus everything queued behind it). This is the queue depth
// the overload audits bound.
func (s *Server) Pending() int {
	s.prune()
	return len(s.finishes)
}

// Delay reports how long a job submitted now would wait before service.
func (s *Server) Delay() Duration {
	if s.busyUntil <= s.eng.Now() {
		return 0
	}
	return s.busyUntil.Sub(s.eng.Now())
}

// BusyTotal returns accumulated service time (for utilization).
func (s *Server) BusyTotal() Duration { return s.busyTotal }

// Jobs returns the number of jobs accepted.
func (s *Server) Jobs() uint64 { return s.jobs }

// Pool models k identical parallel servers with a shared FIFO queue
// (M/x/k): the centralized baseline's multi-core CPU.
type Pool struct {
	eng     *Engine
	free    []Time // next-free time per server
	queue   Duration
	jobs    uint64
	busySum Duration
	// finishes mirrors Server.finishes: completion times of unfinished
	// jobs for Pending(), pruned lazily, scheduling nothing.
	finishes []Time
}

// NewPool returns a pool of k servers. k must be >= 1.
func NewPool(eng *Engine, k int) *Pool {
	if k < 1 {
		panic("sim: pool needs at least one server")
	}
	return &Pool{eng: eng, free: make([]Time, k)}
}

// Submit places a job on the earliest-free server and schedules done at
// completion; returns the completion time.
func (p *Pool) Submit(service Duration, done func()) Time {
	if service < 0 {
		service = 0
	}
	// Pick the server that frees earliest (stable: lowest index wins ties).
	best := 0
	for i, t := range p.free {
		if t < p.free[best] {
			best = i
		}
	}
	start := p.eng.Now()
	if p.free[best] > start {
		start = p.free[best]
	}
	finish := start.Add(service)
	p.free[best] = finish
	p.jobs++
	p.busySum += service
	p.prune()
	// Unlike a Server's, pool completions are not submission-ordered
	// (servers differ in backlog), so insert in sorted position to keep
	// prune a prefix drop.
	at := len(p.finishes)
	for at > 0 && p.finishes[at-1] > finish {
		at--
	}
	p.finishes = append(p.finishes, 0)
	copy(p.finishes[at+1:], p.finishes[at:])
	p.finishes[at] = finish
	if done != nil {
		p.eng.ScheduleAt(finish, done)
	}
	return finish
}

func (p *Pool) prune() {
	now := p.eng.Now()
	i := 0
	for i < len(p.finishes) && p.finishes[i] <= now {
		i++
	}
	if i > 0 {
		p.finishes = append(p.finishes[:0], p.finishes[i:]...)
	}
}

// Pending reports the number of accepted jobs not yet finished across
// all servers in the pool.
func (p *Pool) Pending() int {
	p.prune()
	return len(p.finishes)
}

// Jobs returns the number of jobs accepted.
func (p *Pool) Jobs() uint64 { return p.jobs }

// BusyTotal returns accumulated service time across all servers.
func (p *Pool) BusyTotal() Duration { return p.busySum }
