// pipeline runs one application distributed across three devices — the
// §2.2 point that "an application can be distributed across many
// devices, but what uniquely identifies it is its virtual address space".
//
// The app lives on the smart NIC; its data file lives on the smart SSD;
// checksums and compression run on the compute accelerator. One PASID
// (the app id) identifies it in all three devices' IOMMUs, every mapping
// installed by the system bus under memory-controller authorization. No
// CPU exists in the machine.
package main

import (
	"fmt"
	"log"

	"nocpu/internal/accel"
	"nocpu/internal/core"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
)

// pipelineApp reads its file from the SSD, checksums and compresses each
// chunk on the accelerator, and reports totals.
type pipelineApp struct {
	file    string
	fileCli smartnic.FileAPI
	op      smartnic.FileOp
	size    uint64
	sized   bool
	crcConn *smartnic.Connection
	rleConn *smartnic.Connection
	crcCli  *accel.Client
	rleCli  *accel.Client
	ready   int
	Err     error

	Chunks   int
	InBytes  int
	OutBytes int
	CRCs     []uint32
	Done     bool
}

func (a *pipelineApp) AppID() msg.AppID { return 1 }
func (a *pipelineApp) Boot(rt *smartnic.Runtime) {
	// Three Figure-2 sequences, one per service, all in PASID 1.
	rt.OpenFile(smartnic.Decentralized, core.ControlID, a.file, 0, 64, func(fc smartnic.FileAPI, err error) {
		a.collect(err, func() { a.fileCli = fc }, rt)
	})
	rt.OpenService(core.ControlID, "xform:crc32", 0, 32, func(c *smartnic.Connection, err error) {
		a.collect(err, func() { a.crcConn, a.crcCli = c, &accel.Client{Conn: c.Queue} }, rt)
	})
	rt.OpenService(core.ControlID, "xform:rle", 0, 32, func(c *smartnic.Connection, err error) {
		a.collect(err, func() { a.rleConn, a.rleCli = c, &accel.Client{Conn: c.Queue} }, rt)
	})
}
func (a *pipelineApp) collect(err error, ok func(), rt *smartnic.Runtime) {
	if err != nil {
		a.Err = err
		a.Done = true
		return
	}
	ok()
	a.ready++
	if a.ready == 3 {
		a.run()
	}
}
func (a *pipelineApp) ServeNetwork(p []byte, reply func([]byte)) { reply(p) }
func (a *pipelineApp) PeerFailed(msg.DeviceID)                   {}

// run streams the file through the accelerator chunk by chunk: its Stat,
// then one read at a time, each issued once the previous chunk is through.
func (a *pipelineApp) run() { a.fileCli.StatOp(&a.op, a) }

func (a *pipelineApp) step(off uint64) {
	if off >= a.size {
		a.Done = true
		return
	}
	n := a.fileCli.MaxIO()
	if n > 3000 {
		n = 3000 // keep transform requests within the accel cell
	}
	if rem := a.size - off; uint64(n) > rem {
		n = int(rem)
	}
	a.fileCli.ReadOp(&a.op, off, n, a)
}

// FileDone takes the Stat's size, or a read's chunk through both
// transforms.
func (a *pipelineApp) FileDone(op *smartnic.FileOp, err error) {
	if err != nil {
		a.Err, a.Done = err, true
		return
	}
	if !a.sized {
		a.size, a.sized = op.Size, true
		a.step(0)
		return
	}
	chunk, off := op.Data, op.Off()
	a.crcCli.Do(chunk, func(crc []byte, err error) {
		if err != nil {
			a.Err, a.Done = err, true
			return
		}
		a.CRCs = append(a.CRCs, uint32(crc[0])|uint32(crc[1])<<8|uint32(crc[2])<<16|uint32(crc[3])<<24)
		a.rleCli.Do(chunk, func(compressed []byte, err error) {
			if err != nil {
				a.Err, a.Done = err, true
				return
			}
			a.Chunks++
			a.InBytes += len(chunk)
			a.OutBytes += len(compressed)
			a.step(off + uint64(len(chunk)))
		})
	})
}

func main() {
	sys := core.MustNew(core.Options{Flavor: core.Decentralized, Seed: 13, WithAccel: true})
	if err := sys.Boot(); err != nil {
		log.Fatal(err)
	}
	// A compressible data file: text-ish runs.
	data := make([]byte, 40000)
	for i := range data {
		data[i] = byte('a' + (i/100)%4)
	}
	if err := sys.CreateFile("corpus.dat", data); err != nil {
		log.Fatal(err)
	}

	liveBefore := sys.Memctrl.Stats().BytesLive
	app := &pipelineApp{file: "corpus.dat"}
	sys.NIC().AddApp(app)
	for !app.Done {
		sys.Eng.RunFor(sim.Millisecond)
	}
	if app.Err != nil {
		log.Fatal(app.Err)
	}

	fmt.Printf("pipeline processed %d chunks, %d -> %d bytes (%.1fx compression)\n",
		app.Chunks, app.InBytes, app.OutBytes, float64(app.InBytes)/float64(app.OutBytes))
	fmt.Printf("first/last chunk CRC32: %08x / %08x\n", app.CRCs[0], app.CRCs[len(app.CRCs)-1])
	fmt.Printf("virtual time: %v\n", sys.Eng.Now())

	fmt.Println("\none application, one address space, three devices:")
	fmt.Printf("  nic IOMMU contexts:   %d (PASID 1)\n", sys.NIC().Device().IOMMU().Contexts())
	fmt.Printf("  ssd IOMMU contexts:   %d (PASID 1, granted by bus)\n", sys.SSD().Device().IOMMU().Contexts())
	fmt.Printf("  accel IOMMU contexts: %d (PASID 1, granted by bus)\n", sys.Accel.Device().IOMMU().Contexts())
	fmt.Printf("  accel ops served:     %d (%d bytes)\n", sys.Accel.Stats().Ops, sys.Accel.Stats().BytesProcessed)
	fmt.Printf("  bus grants authorized: %d\n", sys.Bus.Stats().GrantsOK)

	// Done, the app closes what it opened: each close ends the session at
	// its device and gives the queue region back to the memory controller.
	liveOpen, closed := sys.Memctrl.Stats().BytesLive, 0
	for _, c := range []interface{ Close(func(error)) }{app.fileCli, app.crcConn, app.rleConn} {
		c.Close(func(err error) {
			if err != nil {
				log.Fatal(err)
			}
			closed++
		})
	}
	for closed < 3 {
		sys.Eng.RunFor(sim.Millisecond)
	}
	fmt.Println("\nthe file and both accelerator connections closed:")
	fmt.Printf("  memctrl bytes live before the opens: %d\n", liveBefore)
	fmt.Printf("  memctrl bytes live while open:       %d\n", liveOpen)
	fmt.Printf("  memctrl bytes live after the closes: %d\n", sys.Memctrl.Stats().BytesLive)
}
