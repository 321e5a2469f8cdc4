package smartnic

import (
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
)

// This file is the NIC's crash-recovery path (§4 "Error handling": "In the
// case of a fatal error, all the applications that have been allocated the
// resource are notified, and the device is reset"). A bus Reset tears the
// whole device down to power-on state: every call, timer and virtqueue
// belonging to the dying incarnation is discarded here, and rejoin()
// reconciles surviving management state with the bus before the
// applications boot again.

// onReset discards the dying incarnation's volatile state. Nothing here
// may send messages or schedule events: a resetting device is silent until
// its ResetDone, and the abort must not perturb the event schedule beyond
// the crash itself.
func (n *NIC) onReset() {
	// The calls in flight belong to the incarnation that just died: none
	// of their continuations may run, none of their timers may fire.
	n.abortCalls()
	// Quiesce every app's virtqueues (doorbells unregistered, no callbacks
	// fire) and reset the per-app runtimes to their newRuntime state.
	for _, id := range n.sortedAppIDs() {
		rt := n.rts[id]
		for _, c := range rt.conns {
			c.Queue.Quiesce()
		}
		rt.reset()
	}
}

// reset returns the runtime to its power-on state. The VA allocator
// restarts at its base: rejoin() frees the old incarnation's surviving
// regions before any app boots, so the addresses are genuinely free again.
func (rt *Runtime) reset() {
	rt.conns, rt.openers = nil, nil
	rt.nextVA = vaBase
	rt.lazy = nil
	rt.lazyMemctrl = 0
	rt.lazyAllocs = 0
	rt.pendingFaults = make(map[uint64][]func(error))
}

// bootApps starts every hosted application in id order.
func (n *NIC) bootApps() {
	for _, id := range n.sortedAppIDs() {
		n.apps[id].Boot(n.rts[id])
	}
}

// rejoin runs after a recovery (Incarnation > 0): before any application
// boots, ask the bus which regions the previous incarnation still owns
// (StateQuery/StateResp) and free them through the memory controller. The
// bus's FreeResp interception unmaps the owner and every grantee, so the
// reclaim also ends the grants the dead life extended to providers. Without
// this the restarted VA allocator would collide with the old regions at
// the controller ("overlaps existing region") and the frames would leak.
func (n *NIC) rejoin() {
	n.nextNonce++
	req := &msg.StateQuery{Nonce: n.nextNonce}
	n.call(DefaultRetryPolicy, msg.BusID, req, callKey{kind: msg.KindStateResp, id: uint64(req.Nonce)},
		rawAnswer(func(_ msg.DeviceID, resp msg.Message, err error) {
			if err != nil {
				// The bus answered Hello but not StateQuery — boot anyway and
				// let per-app allocation failures surface through the normal
				// error path.
				n.bootApps()
				return
			}
			n.reclaim(resp.(*msg.StateResp).Regions, 0)
		}))
}

// reclaim frees the i-th surviving region, then the next; the StateResp
// lists regions in (app, va) order so the sequence is deterministic. Apps
// boot once the sweep completes. Regions can only exist if a controller
// allocated them, so lastMemctrl is set whenever there is work to do; if
// it somehow is not, booting and letting allocs fail beats stalling.
func (n *NIC) reclaim(regions []msg.OwnedRegion, i int) {
	if n.lastMemctrl == 0 || i >= len(regions) {
		n.bootApps()
		return
	}
	reg := regions[i]
	// owners record extents in 4 KiB pages for both flavors, matching the
	// controller's rounded byte count exactly.
	req := &msg.FreeReq{App: reg.App, VA: reg.VA, Bytes: uint64(reg.Pages) * physmem.PageSize}
	// Answered, refused or timed out, the sweep moves on: a region the
	// controller will not free is not worth stalling the boot for.
	n.call(DefaultRetryPolicy, n.lastMemctrl, req, callKey{kind: msg.KindFreeResp, app: reg.App, id: reg.VA},
		rawAnswer(func(msg.DeviceID, msg.Message, error) { n.reclaim(regions, i+1) }))
}
