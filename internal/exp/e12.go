package exp

import (
	"fmt"

	"nocpu/internal/core"
	"nocpu/internal/iommu"
	"nocpu/internal/metrics"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
)

// pagingApp exercises eager vs demand-backed buffers.
type pagingApp struct {
	id    msg.AppID
	lazy  bool
	bytes uint64
	rt    *smartnic.Runtime
	va    uint64
	ready bool
	err   error
}

func (a *pagingApp) AppID() msg.AppID { return a.id }
func (a *pagingApp) Boot(rt *smartnic.Runtime) {
	a.rt = rt
	if a.lazy {
		a.va = rt.ReserveLazy(core.ControlID, a.bytes, 1)
		a.ready = true
		return
	}
	rt.AllocShared(core.ControlID, a.bytes, func(va uint64, err error) {
		a.va, a.err = va, err
		a.ready = true
	})
}
func (a *pagingApp) ServeNetwork(p []byte, reply func([]byte)) { reply(p) }
func (a *pagingApp) PeerFailed(msg.DeviceID)                   {}

// E12DemandPaging ablates §4's page-fault handling: a 4 MiB application
// buffer backed eagerly at setup vs demand-paged on first touch, under a
// sparse access pattern (10% of pages touched).
func E12DemandPaging() *Result {
	res := &Result{ID: "E12", Title: "Demand paging: eager vs first-touch backing (§4 page faults)"}
	const (
		bufBytes   = 4 << 20
		pages      = bufBytes / physmem.PageSize
		touchCount = pages / 10
	)
	tb := metrics.NewTable("4 MiB app buffer, 10% of pages written once then re-written",
		"strategy", "setup time", "phys bytes live", "first-touch avg", "warm avg")
	for _, lazy := range []bool{false, true} {
		sys := boot(core.Options{Flavor: core.Decentralized, Seed: 121, NoTrace: true})
		app := &pagingApp{id: 1, lazy: lazy, bytes: bufBytes}
		setupStart := sys.Eng.Now()
		sys.NIC().AddApp(app)
		for !app.ready {
			sys.Eng.RunFor(10 * sim.Microsecond)
		}
		if app.err != nil {
			panic(app.err)
		}
		setup := sys.Eng.Now().Sub(setupStart)

		port := sys.NIC().Device().DMA()
		rng := sys.Rand.Fork()
		// Deterministic sparse page set.
		perm := rng.Perm(pages)[:touchCount]
		write := func(page int) sim.Duration {
			start := sys.Eng.Now()
			done := false
			va := iommu.VirtAddr(app.va + uint64(page)*physmem.PageSize + 64)
			port.Write(1, va, []byte{0xAB}, func(err error) {
				if err != nil {
					panic(err)
				}
				done = true
			})
			for !done {
				if !sys.Eng.Step() {
					break
				}
			}
			return sys.Eng.Now().Sub(start)
		}
		var coldSum, warmSum sim.Duration
		for _, p := range perm {
			coldSum += write(p)
		}
		for _, p := range perm {
			warmSum += write(p)
		}
		name := "eager (alloc up front)"
		if lazy {
			name = "lazy (demand paged)"
		}
		tb.AddRow(name, setup,
			sys.Memctrl.Stats().BytesLive,
			coldSum/touchCount, warmSum/touchCount)
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"lazy backing trades a one-time first-touch fault (bus alloc round trip) for 10x less physical memory and near-zero setup",
		fmt.Sprintf("pages touched: %d of %d", touchCount, pages))
	return res
}
