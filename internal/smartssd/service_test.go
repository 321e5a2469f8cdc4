package smartssd

import (
	"bytes"
	"encoding/binary"
	"testing"

	"nocpu/internal/device"
	"nocpu/internal/sim"
	"nocpu/internal/virtio"
)

// The file service, driven without a queue: a request is whatever bytes a
// peer could put in a request cell, and the responder stands in for the
// descriptor pair it arrived on.

type testResponder struct {
	cap     int
	answers [][]byte
}

func (r *testResponder) Cap() int { return r.cap }
func (r *testResponder) Complete(resp []byte) {
	if len(resp) > r.cap {
		resp = resp[:r.cap]
	}
	r.answers = append(r.answers, resp)
}

// last decodes the one answer the responder holds and forgets it.
func (r *testResponder) last(t testing.TB) FileResp {
	t.Helper()
	if len(r.answers) != 1 {
		t.Fatalf("%d answers, want exactly one", len(r.answers))
	}
	resp, err := DecodeFileResp(r.answers[0])
	if err != nil {
		t.Fatal(err)
	}
	r.answers = nil
	return resp
}

const testCell = 4096 + RespHeaderBytes + ReqHeaderBytes

func serviceOn(f *File) (*SSD, virtio.Service) {
	s := &SSD{fs: f.fs}
	return s, s.handlerFor(&device.Session[*File]{State: f})
}

func rawReq(op FileOp, off uint64, n uint32, data []byte) []byte {
	return EncodeFileReq(FileReq{Op: op, Off: off, Len: n, Data: data})
}

// An OpWrite whose offset wraps used to wedge its descriptor pair for the
// life of the connection: done never fired. Now the request completes with
// StatusBadRequest and the same pair serves the next one.
func TestServiceRefusesWrappingWrite(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "a")
	mustWrite(t, eng, f, 0, []byte("seed"))
	_, svc := serviceOn(f)
	r := &testResponder{cap: testCell}
	for _, op := range []FileOp{OpWrite, OpAppend} {
		off := ^uint64(0) - 3
		if op == OpAppend {
			off = 0
			fs.inodes[f.idx].size = ^uint64(0) - 3 // only a corrupt inode gets an append here
		}
		svc.Serve(rawReq(op, off, 0, make([]byte, 10)), r)
		eng.Run()
		if resp := r.last(t); resp.Status != StatusBadRequest {
			t.Errorf("%v: status %d, want StatusBadRequest", op, resp.Status)
		}
		fs.inodes[f.idx].size = 4
	}
	if len(f.extents()) != 1 || f.Size() != 4 {
		t.Errorf("file touched: size %d extents %v", f.Size(), f.extents())
	}
	svc.Serve(rawReq(OpRead, 0, 4, nil), r)
	eng.Run()
	if resp := r.last(t); resp.Status != StatusOK || string(resp.Data) != "seed" {
		t.Errorf("next request on the pair: %+v", resp)
	}
}

// A read's Len is the peer's. The service bounds it by the response cell
// before touching flash: one cell's worth of page reads, not the file's.
func TestServiceBoundsReadByResponseCell(t *testing.T) {
	eng, f := logFile(t)
	mustWrite(t, eng, f, 0, bytes.Repeat([]byte{9}, 1<<20))
	_, svc := serviceOn(f)
	r := &testResponder{cap: testCell}
	before := f.fs.ftl.Stats().HostReads
	svc.Serve(rawReq(OpRead, 0, 1<<30, nil), r)
	eng.Run()
	resp := r.last(t)
	if resp.Status != StatusOK || len(resp.Data) != testCell-RespHeaderBytes || resp.Size != 1<<20 {
		t.Errorf("status %d, %d bytes, size %d", resp.Status, len(resp.Data), resp.Size)
	}
	if d := f.fs.ftl.Stats().HostReads - before; d > 2 {
		t.Errorf("%d flash reads for one response cell (256 when the whole extent was read)", d)
	}
	// A cell too small for any data still gets its header.
	r.cap = RespHeaderBytes - 2
	svc.Serve(rawReq(OpRead, 0, 64, nil), r)
	eng.Run()
	if len(r.answers) != 1 || len(r.answers[0]) != r.cap {
		t.Errorf("answers into a tiny cell: %v", r.answers)
	}
}

// The edges the closures got right: what counts as served, what an empty
// read and an empty write answer, and that neither waits for flash.
func TestServiceEdges(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "a")
	mustWrite(t, eng, f, 0, []byte("0123456789"))
	s, svc := serviceOn(f)
	r := &testResponder{cap: testCell}

	svc.Serve([]byte{byte(OpStat), 0, 0}, r) // undecodable: answered, not counted
	if resp := r.last(t); resp.Status != StatusBadRequest || s.ServedOps != 0 {
		t.Errorf("short request: %+v, ServedOps %d", resp, s.ServedOps)
	}
	svc.Serve(rawReq(FileOp(99), 0, 0, nil), r) // decodable, unknown: counted
	if resp := r.last(t); resp.Status != StatusBadRequest || s.ServedOps != 1 {
		t.Errorf("unknown op: %+v, ServedOps %d", resp, s.ServedOps)
	}
	for _, off := range []uint64{10, 11, 1 << 50} { // at and past EOF
		svc.Serve(rawReq(OpRead, off, 4, nil), r)
		if resp := r.last(t); resp.Status != StatusOK || resp.Size != 10 || resp.Data != nil {
			t.Errorf("read at %d: %+v", off, resp)
		}
	}
	svc.Serve(rawReq(OpWrite, 3, 0, nil), r) // zero-length write: at once
	if resp := r.last(t); resp.Status != StatusOK || resp.Size != 10 {
		t.Errorf("empty write: %+v", resp)
	}
	svc.Serve(rawReq(OpStat, 0, 0, nil), r)
	if resp := r.last(t); resp.Status != StatusOK || resp.Size != 10 {
		t.Errorf("stat: %+v", resp)
	}
	svc.Serve(rawReq(OpRead, 8, 100, nil), r) // clipped to EOF
	eng.Run()
	if resp := r.last(t); resp.Status != StatusOK || string(resp.Data) != "89" {
		t.Errorf("clipped read: %+v", resp)
	}
	fs.ftl.f.broken = true
	svc.Serve(rawReq(OpRead, 0, 4, nil), r)
	eng.Run()
	if resp := r.last(t); resp.Status != StatusIOError || resp.Data != nil || resp.Size != 0 {
		t.Errorf("read off broken flash: %+v", resp)
	}
	if s.ServedOps != 8 {
		t.Errorf("ServedOps = %d, want 8", s.ServedOps)
	}
}

// The service owns the request buffer the queue handed it and passes a
// write's data down as a view of it; its record is per pair and lets go of
// every buffer when the request is answered.
func TestServiceRecordPerPairHoldsNothing(t *testing.T) {
	eng, f := logFile(t)
	_, svc := serviceOn(f)
	c := svc.(*fileConn)
	a, b := &testResponder{cap: testCell}, &testResponder{cap: testCell}
	svc.Serve(rawReq(OpWrite, 0, 0, bytes.Repeat([]byte{1}, 4096)), a) // a full page: the flash keeps the view
	svc.Serve(rawReq(OpAppend, 0, 0, []byte("tail")), b)
	if len(c.reqs) != 2 || c.reqs[a].io.done == nil || c.reqs[b].io.done == nil {
		t.Fatalf("records in flight: %+v", c.reqs)
	}
	eng.Run()
	if a.last(t).Status != StatusOK || b.last(t).Size != 4100 {
		t.Error("writes failed")
	}
	svc.Serve(rawReq(OpRead, 4096, 4, nil), a)
	eng.Run()
	if resp := a.last(t); string(resp.Data) != "tail" {
		t.Errorf("read back %+v", resp)
	}
	svc.Serve(rawReq(OpWrite, 4090, 0, make([]byte, 4105)), b) // three pages: the chunks spill out of the record
	eng.Run()
	if resp := b.last(t); resp.Status != StatusOK || resp.Size != 4090+4105 {
		t.Errorf("three-page write answered %+v", resp)
	}
	if len(c.reqs) != 2 {
		t.Errorf("%d records for two pairs", len(c.reqs))
	}
	for _, q := range c.reqs {
		if q.resp != nil || q.io.done != nil || q.io.chunks != nil || q.io.inode.page != nil || q.io.inline[0].data != nil || q.io.inline[1].page != nil {
			t.Errorf("an idle record still holds a buffer: %+v", q)
		}
	}
}

// TestFileOpAllocs pins what one request costs the SSD's side in steady
// state. A 64-byte read: the response buffer. A 64-byte append into a
// partly filled page: the response header, the read-modify-write page and
// the inode page (a fourth when the append crosses into a new page and the
// extent list grows). With a closure per stage and a copy per layer these
// were 9 and 21 (HEAD, same requests, not counting complete's own clone).
func TestFileOpAllocs(t *testing.T) {
	eng, f := logFile(t)
	mustWrite(t, eng, f, 4096, make([]byte, 100))
	_, svc := serviceOn(f)
	r := &testResponder{cap: testCell}
	read, app := rawReq(OpRead, 128, 64, nil), rawReq(OpAppend, 0, 0, make([]byte, 64))
	serve := func(req []byte) func() {
		return func() {
			r.answers = r.answers[:0]
			svc.Serve(req, r)
			eng.Run()
		}
	}
	serve(read)()
	if n := testing.AllocsPerRun(200, serve(read)); n > 2 {
		t.Errorf("64 B read allocates %v times, want <= 2", n)
	}
	if n := testing.AllocsPerRun(40, serve(app)); n > 4 {
		t.Errorf("64 B append allocates %v times, want <= 4", n)
	}
	if resp, _ := DecodeFileResp(r.answers[0]); resp.Status != StatusOK || resp.Size != 4096+100+41*64 {
		t.Errorf("last append answered %+v", resp)
	}
}

// DecodeFileReq and DecodeFileResp borrow: Data is a window onto the
// buffer, which is why both ends need a buffer made for the request.
func TestFileCodecAliases(t *testing.T) {
	b := rawReq(OpWrite, 7, 0, []byte("payload"))
	req, err := DecodeFileReq(b)
	if err != nil || req.Op != OpWrite || req.Off != 7 || string(req.Data) != "payload" {
		t.Fatalf("%+v, %v", req, err)
	}
	b[ReqHeaderBytes] = 'P'
	if string(req.Data) != "Payload" {
		t.Error("DecodeFileReq copied its data")
	}
	b = append(make([]byte, RespHeaderBytes), "value"...)
	PutFileRespHeader(b, StatusOK, 9)
	resp, err := DecodeFileResp(b)
	if err != nil || resp.Size != 9 || string(resp.Data) != "value" {
		t.Fatalf("%+v, %v", resp, err)
	}
	b[RespHeaderBytes] = 'V'
	if string(resp.Data) != "Value" {
		t.Error("DecodeFileResp copied its data")
	}
	if r, _ := DecodeFileReq(b[:ReqHeaderBytes]); r.Data != nil {
		t.Error("a request without payload decodes with data")
	}
	if _, err := DecodeFileReq(b[:ReqHeaderBytes-1]); err == nil {
		t.Error("short request decoded")
	}
	if _, err := DecodeFileResp(b[:RespHeaderBytes-1]); err == nil {
		t.Error("short response decoded")
	}
}

// FuzzFileService turns a byte string into a sequence of raw requests
// against one service — any op, any offset and length, short and oversized
// bodies, several pairs in flight — with flash failing now and then. (The
// array is large enough that 64 requests never bring the FTL's collector
// in: it is the bitmap that runs out, through large offsets.) Every request must be answered exactly once, nothing may
// panic or leave a page locked, and the volume's pages are conserved: free
// ones plus those the extents own is what the bitmap has.
func FuzzFileService(f *testing.F) {
	le := binary.LittleEndian
	step := func(op FileOp, off uint64, n uint32, body uint16) []byte {
		b := []byte{byte(op)}
		b = le.AppendUint64(b, off)
		b = le.AppendUint32(b, n)
		return le.AppendUint16(b, body)
	}
	f.Add(bytes.Join([][]byte{step(OpAppend, 0, 0, 100), step(OpRead, 0, 64, 0), step(OpStat, 0, 0, 0)}, nil))
	f.Add(bytes.Join([][]byte{step(OpWrite, ^uint64(0)-3, 0, 10), step(OpWrite, 1<<40, 0, 1), step(OpRead, 0, 1<<30, 0)}, nil))
	f.Add(bytes.Join([][]byte{step(OpWrite, 4090, 0, 5000), step(OpTruncate, 0, 0, 0), step(OpRename, 0, 0, 3), step(FileOp(0x80|OpWrite), 100, 0, 9)}, nil))
	f.Add([]byte{byte(OpStat), 1, 2})

	f.Fuzz(func(t *testing.T, script []byte) {
		eng, fs := fsWorld(t)
		file := mustCreate(t, eng, fs, "a")
		other := mustCreate(t, eng, fs, "b")
		mustWrite(t, eng, other, 0, make([]byte, 3*4096))
		_, svc := serviceOn(file)
		run := func() { // eng.Run, but a livelock is a failure, not a hang
			for n := 0; eng.Step(); n++ {
				if n > 1<<20 {
					t.Fatal("engine still busy after a million events")
				}
			}
		}
		const pairs = 4
		var rs [pairs]*testResponder
		for i := range rs {
			rs[i] = &testResponder{cap: testCell}
		}
		var sentOn [pairs]int
		sent := 0
		for i := 0; len(script) > 0 && sent < 64; i++ {
			// A step is the 15 bytes of step() above; the top bit of the op
			// breaks the flash for it, and a short tail is sent as it is.
			n := min(len(script), 15)
			st := script[:n]
			script = script[n:]
			r := rs[i%pairs]
			if len(r.answers) != sentOn[i%pairs] {
				run() // the pair is still busy: one request at a time on a pair
			}
			sentOn[i%pairs]++
			req := st
			if n == 15 {
				fs.ftl.f.broken = st[0]&0x80 != 0
				body := int(le.Uint16(st[13:])) % (2*4096 + 100)
				req = append(bytes.Clone(st[:13]), bytes.Repeat([]byte{byte(i)}, body)...)
				req[0] &^= 0x80
				if len(req) > testCell {
					req = req[:testCell] // what the queue would carry
				}
			}
			svc.Serve(req, r)
			sent++
			if i%3 == 0 {
				eng.RunFor(30 * sim.Microsecond)
			}
		}
		run()
		answered := 0
		for _, r := range rs {
			answered += len(r.answers)
			for _, a := range r.answers {
				if len(a) < min(RespHeaderBytes, r.cap) {
					t.Errorf("answer of %d bytes", len(a))
				}
			}
		}
		if answered != sent {
			t.Errorf("%d requests, %d answers", sent, answered)
		}
		if len(fs.pageLocks) != 0 {
			t.Errorf("%d pages still locked", len(fs.pageLocks))
		}
		if free, owned := freePages(fs), ownedPages(fs); free+owned != len(fs.bitmap) {
			t.Errorf("%d free + %d owned pages of %d", free, owned, len(fs.bitmap))
		}
	})
}
