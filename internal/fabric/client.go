package fabric

import (
	"slices"

	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
)

// client is the router's client path: it routes each client op on its
// key, serves the ops this machine owns through the replicator, forwards
// the rest and answers what other machines forward here. It owns the
// forwarded ops awaiting their answer, the records of the ops it serves
// for other machines, and the bodies of the frames it sends.
type client struct {
	v     *view
	repl  *replicator
	lease *lease

	nextReq uint64
	pending map[uint64]*pendingReq
	reqs    sim.Free[pendingReq] // answered ops' records (client.drop)
	serves  sim.Free[served]     // answered served records (served.Answer)
	fwd     msg.FabricReq
	resp    msg.FabricResp
	answer  []byte // resp's payload, encoded by answerServed
}

// pendingReq is a client op forwarded to another machine, awaiting its
// FabricResp. tm is armed with the record itself, whose Fire is the op
// timeout. Only the client's pending map and tm hold it, so it goes back
// on the client's list as the op leaves the map (client.drop), before
// the client is answered: an answer that forwards again takes it.
type pendingReq struct {
	tm       sim.Timer
	c        *client
	id       uint64
	target   msg.DeviceID
	rerouted bool
	rep      smartnic.Replier
	payload  []byte
}

// onClient routes a client request on its key, read in place. Only the
// machine that serves a request decodes it (req, when the caller already
// did); a forwarded one travels on as payload.
func (c *client) onClient(payload []byte, req *kvs.Request, rep smartnic.Replier) {
	key, err := kvs.RequestKey(payload)
	if err != nil {
		kvs.Answer(rep, kvs.Response{Status: kvs.StatusError})
		return
	}
	own := c.v.owners(string(key))
	if len(own) == 0 {
		kvs.Answer(rep, kvs.Response{Status: kvs.StatusUnavailable})
		return
	}
	if own[0] != c.v.id {
		c.v.stats.Remote++
		c.forward(own[0], payload, rep, false)
		return
	}
	c.v.stats.Local++
	if req == nil {
		decoded, _ := kvs.DecodeRequest(payload) // RequestKey accepted it
		req = &decoded
	}
	c.repl.servePrimary(*req, rep)
}

// forward sends a client op to the key's primary — directly, or through
// the head node when one is configured (the centralized-routing
// baseline; the owner still answers the origin directly, so only the
// request leg transits the head).
func (c *client) forward(primary msg.DeviceID, payload []byte, rep smartnic.Replier, rerouted bool) {
	target := primary
	if c.v.head != 0 && !c.v.isHead() {
		target = c.v.head
	}
	c.nextReq++
	p := c.reqs.Get()
	p.c, p.id, p.target, p.rep, p.payload, p.rerouted = c, c.nextReq, primary, rep, payload, rerouted
	c.pending[p.id] = p
	p.tm.Arm(c.v.eng, DefaultOpTimeout, p)
	c.fwd = msg.FabricReq{Origin: c.v.id, ReqID: p.id, Payload: payload}
	c.v.send(target, &c.fwd)
}

// Fire is the op timeout: nobody answered within DefaultOpTimeout.
func (p *pendingReq) Fire() {
	if p.c.v.halted || p.c.pending[p.id] != p {
		return
	}
	p.c.v.stats.Timeouts++
	p.unavailable()
}

// finish forgets a forwarded op and answers its client with the owner's
// encoded answer.
func (p *pendingReq) finish(resp []byte) {
	rep := p.rep
	p.c.drop(p)
	rep.Reply(resp)
}

// unavailable forgets a forwarded op and answers its client Unavailable.
func (p *pendingReq) unavailable() {
	rep := p.rep
	p.c.drop(p)
	kvs.Answer(rep, kvs.Response{Status: kvs.StatusUnavailable})
}

// drop forgets a forwarded op and puts its record back. The caller has
// read what it still needs of p.
func (c *client) drop(p *pendingReq) {
	delete(c.pending, p.id)
	p.tm.Stop()
	c.reqs.Put(p)
}

// onFabricReq routes a forwarded client op on its key, read in place,
// and decodes the request only to serve it.
func (c *client) onFabricReq(m *msg.FabricReq) {
	key, err := kvs.RequestKey(m.Payload)
	if err != nil {
		c.answerServed(m.Origin, m.ReqID, kvs.Response{Status: kvs.StatusError})
		return
	}
	own := c.v.owners(string(key))
	switch {
	case len(own) > 0 && own[0] == c.v.id:
		req, _ := kvs.DecodeRequest(m.Payload) // RequestKey accepted it
		s := c.serves.Get()
		s.c, s.origin, s.id = c, m.Origin, m.ReqID
		c.repl.servePrimary(req, s)
	case c.v.isHead() && m.Hops == 0 && len(own) > 0:
		// Head relay: forward to the shard owner, origin preserved. Hops
		// guards the (unreachable in a sane view) forwarding loop. A head
		// that lost its lease is fenced like any primary: with the sole
		// authority partitioned away, the whole machine's typed answer is
		// "fenced" — the contrast E21 measures against the decentralized
		// flavor, where only the cut-off side stalls.
		if !c.lease.valid() {
			c.v.stats.LeaseFenced++
			c.answerServed(m.Origin, m.ReqID, kvs.Response{Status: kvs.StatusFenced})
			return
		}
		c.v.stats.HeadRelayed++
		c.fwd = msg.FabricReq{Origin: m.Origin, ReqID: m.ReqID, Hops: m.Hops + 1, Payload: m.Payload}
		c.v.send(own[0], &c.fwd)
	default:
		// Not ours: tell the origin whom we think is dead so it can catch
		// up and re-route.
		c.v.stats.WrongOwner++
		c.respond(m.Origin, m.ReqID, msg.FabricWrongOwner, nil)
	}
}

// served is a forwarded op this machine serves as the key's owner: its
// answer goes back to the origin router. Whoever answers it (the store, a
// write task, a refusal) answers it once and keeps it no longer
// (kvs.Store.Serve), so it goes back on the client's list as its answer
// begins, once its fields are read out.
type served struct {
	c      *client
	origin msg.DeviceID
	id     uint64
}

func (s *served) Answer(resp kvs.Response) {
	c, origin, id := s.c, s.origin, s.id
	c.serves.Put(s)
	c.answerServed(origin, id, resp)
}

func (s *served) Reply(b []byte) { replyAnswer(s, b) }

// answerServed answers the forwarded op (origin, id) with resp, encoded
// into the client's scratch: the send copies it into the frame before it
// returns, so a lent resp.Value is read only during the call.
func (c *client) answerServed(origin msg.DeviceID, id uint64, resp kvs.Response) {
	c.answer = kvs.AppendResponse(c.answer[:0], resp)
	c.respond(origin, id, msg.FabricServed, c.answer)
}

// respond sends a FabricResp carrying this router's dead set as gossip.
func (c *client) respond(origin msg.DeviceID, id uint64, code uint8, resp []byte) {
	c.resp = msg.FabricResp{ReqID: id, Code: code, Dead: c.v.deadSorted, Payload: resp}
	c.v.send(origin, &c.resp)
}

// onFabricResp answers the forwarded op m resolves. The hub has merged
// the response's dead set into the view first.
func (c *client) onFabricResp(m *msg.FabricResp) {
	p := c.pending[m.ReqID]
	if p == nil {
		return // already timed out or resolved
	}
	if m.Code == msg.FabricServed {
		p.finish(m.Payload)
		return
	}
	// WrongOwner/unavailable: one re-route with the merged view, then
	// give up and let the client retry.
	rep, payload, rerouted := p.rep, p.payload, p.rerouted
	c.drop(p)
	if key, err := kvs.RequestKey(payload); err == nil && !rerouted {
		if own := c.v.owners(string(key)); len(own) > 0 {
			c.v.stats.Reroutes++
			if own[0] != c.v.id {
				c.forward(own[0], payload, rep, true)
				return
			}
			// The merged view promoted us: serve locally after all.
			req, _ := kvs.DecodeRequest(payload) // RequestKey accepted it
			c.repl.servePrimary(req, rep)
			return
		}
	}
	kvs.Answer(rep, kvs.Response{Status: kvs.StatusUnavailable})
}

// failPendingTo answers every pending op whose target just died, in
// ReqID order: Unavailable now beats a client timeout later.
func (c *client) failPendingTo(died []msg.DeviceID) {
	var ids []uint64
	for id, p := range c.pending {
		for _, d := range died {
			if p.target == d {
				ids = append(ids, id)
			}
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		c.pending[id].unavailable()
	}
}
