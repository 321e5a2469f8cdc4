package smartssd

import (
	"bytes"
	"encoding/binary"
	"testing"

	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/virtio"
)

// The file service, driven without a queue: a request is whatever bytes a
// peer could put in a request cell, and the responder stands in for the
// descriptor pair it arrived on.

// testResponder copies each answer Complete hands it, as the port moves
// it: the array is the request record's, and its pair's next request may
// fill it again.
type testResponder struct {
	cap     int
	answers [][]byte
}

func (r *testResponder) Cap() int { return r.cap }
func (r *testResponder) Complete(resp []byte) {
	if len(resp) > r.cap {
		resp = resp[:r.cap]
	}
	r.answers = append(r.answers, bytes.Clone(resp))
}

// viewResponder keeps a view of each answer instead, as a port costs no
// allocation: for the allocation guard, and to show that a later request
// on the same pair reuses the array.
type viewResponder struct{ testResponder }

func (r *viewResponder) Complete(resp []byte) {
	r.answers = append(r.answers, resp[:min(len(resp), r.cap)])
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
	return s, &fileConn{ssd: s, file: f, reqs: make(map[virtio.Responder]*fileReq)}
}

func rawReq(op FileOp, off uint64, n uint32, data []byte) []byte {
	return EncodeFileReq(FileReq{Op: op, Off: off, Len: n, Data: data})
}

// The file service's two name forms: "file:<name>" matches and admits only
// a file the volume holds, "file+create:<name>" matches any volume and
// creates a missing file on open. Through a device a missing "file:" name
// already fails discovery and the service lookup (smartnic's
// TestOpenUnknownFileFails); admit's own refusal is reached here.
func TestFileServiceAdmit(t *testing.T) {
	for _, tc := range []struct {
		query   string
		file    string
		match   bool
		refusal string // "" = admitted
	}{
		{"file:ghost.dat", "ghost.dat", false, "no such file"},
		{"file+create:ghost.dat", "ghost.dat", true, ""},
		{"file:kv.dat", "kv.dat", true, ""},
	} {
		t.Run(tc.query, func(t *testing.T) {
			eng, fs := fsWorld(t)
			mustCreate(t, eng, fs, "kv.dat")
			s := &SSD{fs: fs, ready: true}
			s.files = &fileService{ssd: s}
			if got := s.files.Match(tc.query); got != tc.match {
				t.Errorf("Match = %v, want %v", got, tc.match)
			}
			c, refusal := s.admit(0, &msg.OpenReq{Service: tc.query})
			eng.Run()
			if refusal != tc.refusal {
				t.Fatalf("admit refusal = %q, want %q", refusal, tc.refusal)
			}
			if (c != nil) != (tc.refusal == "") {
				t.Fatalf("admit connection = %v with refusal %q", c, refusal)
			}
			if c != nil && c.Resource() != "file:"+tc.file {
				t.Errorf("resource = %q, want file:%s", c.Resource(), tc.file)
			}
			if _, exists := fs.Lookup(tc.file); exists != (tc.refusal == "") {
				t.Errorf("%s exists = %v after admit", tc.file, exists)
			}
		})
	}
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

// Op 6 was a rename that replaced any file of the given name, past that
// file's own Tokens check; the victim's open session then read whatever
// file was created into the freed inode slot. It is an unknown op now:
// answered StatusBadRequest, with every other file and session untouched.
func TestServiceRefusesOpSix(t *testing.T) {
	eng, fs := fsWorld(t)
	a := mustCreate(t, eng, fs, "a.dat")
	mustWrite(t, eng, a, 0, []byte("attacker"))
	secret := mustCreate(t, eng, fs, "secret.dat")
	mustWrite(t, eng, secret, 0, []byte("password"))
	_, attacker := serviceOn(a)
	_, victim := serviceOn(secret)
	r := &testResponder{cap: testCell}
	attacker.Serve(rawReq(FileOp(6), 0, 0, []byte("secret.dat")), r)
	eng.Run()
	if resp := r.last(t); resp.Status != StatusBadRequest {
		t.Errorf("op 6 over secret.dat: status %d, want StatusBadRequest", resp.Status)
	}
	if f, ok := fs.Lookup("secret.dat"); !ok || string(mustRead(t, eng, f, 0, 8)) != "password" {
		t.Errorf("secret.dat lost its bytes (found %v)", ok)
	}
	mustWrite(t, eng, mustCreate(t, eng, fs, "next.dat"), 0, []byte("newcomer"))
	victim.Serve(rawReq(OpRead, 0, 8, nil), r)
	eng.Run()
	if resp := r.last(t); resp.Status != StatusOK || string(resp.Data) != "password" {
		t.Errorf("victim's session reads %+v, want its own bytes", resp)
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

// The service's record is per pair and lets go of every page and request
// buffer when the request is answered; what it keeps is its response
// array, which the pair's next answer reuses.
func TestServiceRecordPerPairHoldsNothing(t *testing.T) {
	eng, f := logFile(t)
	_, svc := serviceOn(f)
	c := svc.(*fileConn)
	a, b := &testResponder{cap: testCell}, &testResponder{cap: testCell}
	svc.Serve(rawReq(OpWrite, 0, 0, bytes.Repeat([]byte{1}, 4096)), a) // a full page: the flash keeps a copy
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
		if q.io.done != nil || q.io.chunks != nil || q.io.inode.page != nil || q.io.inline[0].data != nil || q.io.inline[1].page != nil {
			t.Errorf("an idle record still holds a buffer: %+v", q)
		}
	}
	// The response array grows only to the longest answer its pair has
	// carried: a's 4-byte read, and b's bare headers.
	for r, want := range map[*testResponder]int{a: RespHeaderBytes + 4, b: RespHeaderBytes} {
		if got := cap(c.reqs[r].buf); got != want {
			t.Errorf("an idle record keeps a %d-byte response array, want %d", got, want)
		}
	}
}

// TestFullPageWriteOutlivesLentRequest: a write's request buffer is lent
// to the service until it answers, and an aligned full page of it is the
// slice the flash would keep, so the service hands the flash a copy.
// Scribbling over the request after the answer, as the queue's next
// request into the same pair does, leaves what the flash holds alone. The
// aligned page needs the copy; the page-long write at 100 straddles two
// pages, both merged into pages the flash owns, so it needs none and is
// handed down as it is.
func TestFullPageWriteOutlivesLentRequest(t *testing.T) {
	eng, f := logFile(t)
	_, svc := serviceOn(f)
	r := &testResponder{cap: testCell}
	for _, off := range []uint64{0, 100} {
		data := make([]byte, 4096)
		for i := range data {
			data[i] = byte(i*7 + int(off))
		}
		req := rawReq(OpWrite, off, 0, data)
		svc.Serve(req, r)
		eng.Run()
		if resp := r.last(t); resp.Status != StatusOK {
			t.Fatalf("write at %d: %+v", off, resp)
		}
		for i := range req {
			req[i] = 0xee
		}
		svc.Serve(rawReq(OpRead, off, 4096, nil), r)
		eng.Run()
		if resp := r.last(t); resp.Status != StatusOK || !bytes.Equal(resp.Data, data) {
			t.Errorf("write at %d reads back changed after its request was scribbled", off)
		}
	}
}

// TestLentResponsePerPair: a response array is its request record's, one
// per descriptor pair, and the port moves it after Complete, so no other
// pair's request may fill it meanwhile. Two reads in flight on two pairs,
// answered into responders that keep a view as the port does: each view
// still holds its own read once both have answered.
func TestLentResponsePerPair(t *testing.T) {
	eng, f := logFile(t)
	mustWrite(t, eng, f, 0, []byte("first-pair's-bytes|second-pair's-bytes"))
	_, svc := serviceOn(f)
	a, b := &viewResponder{testResponder{cap: testCell}}, &viewResponder{testResponder{cap: testCell}}
	svc.Serve(rawReq(OpRead, 0, 18, nil), a)
	svc.Serve(rawReq(OpRead, 19, 19, nil), b)
	eng.Run()
	for _, c := range []struct {
		r    *viewResponder
		want string
	}{{a, "first-pair's-bytes"}, {b, "second-pair's-bytes"}} {
		if resp := c.r.last(t); resp.Status != StatusOK || string(resp.Data) != c.want {
			t.Errorf("answer %+v, want %q", resp, c.want)
		}
	}
}

// TestFileOpAllocs pins what one request costs the SSD's side in steady
// state, answered into a responder that keeps a view, as the port does, so
// the record's response array is reused as it is on a queue. A 64-byte
// read: nothing, 0 measured. A 64-byte append into a partly filled page:
// the inode page (the page itself is extended in place; another when the
// append crosses into a new page and the extent list grows), 1 measured.
// They read 1 and 2 while each answer had a response buffer of its own,
// and 9 and 21 with a closure per stage and a copy per layer. Bounds are
// the measured counts and one to spare.
func TestFileOpAllocs(t *testing.T) {
	eng, f := logFile(t)
	mustWrite(t, eng, f, 4096, make([]byte, 100))
	_, svc := serviceOn(f)
	r := &viewResponder{testResponder{cap: testCell}}
	read, app := rawReq(OpRead, 128, 64, nil), rawReq(OpAppend, 0, 0, make([]byte, 64))
	serve := func(req []byte) func() {
		return func() {
			r.answers = r.answers[:0]
			svc.Serve(req, r)
			eng.Run()
		}
	}
	serve(read)()
	n := testing.AllocsPerRun(200, serve(read))
	t.Logf("64 B read: %v allocations", n)
	if n > 1 {
		t.Errorf("64 B read allocates %v times, want <= 1", n)
	}
	n = testing.AllocsPerRun(40, serve(app))
	t.Logf("64 B append: %v allocations", n)
	if n > 2 {
		t.Errorf("64 B append allocates %v times, want <= 2", n)
	}
	if resp, _ := DecodeFileResp(r.answers[0]); resp.Status != StatusOK || resp.Size != 4096+100+41*64 {
		t.Errorf("last append answered %+v", resp)
	}
}

// DecodeFileReq and DecodeFileResp borrow: Data is a window onto the
// buffer, which at both ends of the queue is lent, so a holder copies what
// it keeps.
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
// in: it is the bitmap that runs out, through large offsets.) Every request
// must be answered exactly once, nothing may panic or leave a page locked,
// and the volume's pages are conserved: free ones plus those the extents own
// is what the bitmap has. The file then reads back as its model says
// (fileModel).
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
	f.Add(bytes.Join([][]byte{step(OpWrite, 4090, 0, 5000), step(OpTruncate, 0, 0, 0), step(FileOp(6), 0, 0, 3), step(FileOp(0x80|OpWrite), 100, 0, 9)}, nil))
	f.Add([]byte{byte(OpStat), 1, 2})
	// Both merge branches under a broken flash. A step i sends byte(i) as its
	// body, every third step lets 30 µs pass after it (a flash read takes 25),
	// and a pair still busy runs the engine dry first: appends at a page's
	// end, one leaving a gap, a failed overwrite inside the written prefix,
	// then good ones.
	brk := FileOp(0x80)
	f.Add(bytes.Join([][]byte{step(OpAppend, 0, 0, 100), step(OpStat, 0, 0, 0), step(OpStat, 0, 0, 0),
		step(OpStat, 0, 0, 0), step(OpAppend, 0, 0, 60), step(OpWrite, 400, 0, 40), step(brk|OpWrite, 20, 0, 30),
		step(brk|OpAppend, 0, 0, 50), step(OpWrite, 10, 0, 20), step(OpAppend, 0, 0, 70), step(OpRead, 0, 4096, 0)}, nil))
	// A broken-flash append followed by a good one: the append at step 6 has
	// merged into its page's array when step 7 breaks the flash, so its
	// program fails with its bytes past the page's end; step 11 reads them as
	// zeros, and step 12's write past them must clear them, not show them.
	f.Add(bytes.Join([][]byte{step(OpAppend, 0, 0, 100), step(OpStat, 0, 0, 0), step(OpStat, 0, 0, 0),
		step(OpStat, 0, 0, 0), step(OpStat, 0, 0, 0), step(OpStat, 0, 0, 0), step(OpAppend, 0, 0, 100),
		step(brk|OpStat, 0, 0, 0), step(brk|OpStat, 0, 0, 0), step(brk|OpStat, 0, 0, 0), step(brk|OpStat, 0, 0, 0),
		step(OpRead, 100, 100, 0), step(OpWrite, 300, 0, 10)}, nil))

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
		var model fileModel
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
			model.sent(req, file.Size(), r, sentOn[i%pairs]-1)
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
		if want, ok := model.replay(); ok && answered == sent {
			fs.ftl.f.broken = false
			for i, b := range mustRead(t, eng, file, 0, int(file.Size())) {
				v := int16(0) // past the model's end no write reached
				if i < len(want) {
					v = want[i]
				}
				if v >= 0 && b != byte(v) {
					t.Fatalf("byte %d reads %d, want %d", i, b, v)
				}
			}
		}
	})
}

// fileModel is what the fuzzed file must read back as: the requests in the
// order they were issued, replayed against their answers into a byte each,
// a value (zero where no write reached) or -1 for unknown.
type fileModel struct{ reqs []modelReq }

type modelReq struct {
	req   FileReq
	at    uint64 // where the request's bytes are: an append's offset is the size at issue
	r     *testResponder
	k     int  // the index of its answer on r
	quiet bool // every request issued before it had been answered
}

func (m *fileModel) sent(b []byte, size uint64, r *testResponder, k int) {
	req, err := DecodeFileReq(b)
	if err != nil {
		return
	}
	q := modelReq{req: req, at: req.Off, r: r, k: k, quiet: true}
	if req.Op == OpAppend {
		q.at = size
	}
	for _, p := range m.reqs {
		q.quiet = q.quiet && len(p.r.answers) > p.k
	}
	m.reqs = append(m.reqs, q)
}

// replay applies the requests in issue order, which is the order their
// chunks took the page locks in. A write answered OK sets its bytes; a
// failed one makes them unknown (a chunk, or the data but not the inode, may
// have landed); one refused as a bad request touched nothing. A read issued
// while nothing else was in flight saw what the file held, so it pins bytes
// a failed write left unknown. A truncate empties the file, and with a
// request still in flight the model is void (ok false): a write then lands
// in pages the file gave back.
func (m *fileModel) replay() (model []int16, ok bool) {
	set := func(at uint64, data []byte, known bool) {
		if len(data) == 0 { // done at once, at any offset
			return
		}
		if end := at + uint64(len(data)); end > uint64(len(model)) {
			model = append(model, make([]int16, end-uint64(len(model)))...)
		}
		for i, b := range data {
			model[at+uint64(i)] = -1
			if known {
				model[at+uint64(i)] = int16(b)
			}
		}
	}
	for _, q := range m.reqs {
		resp, _ := DecodeFileResp(q.r.answers[q.k])
		switch q.req.Op {
		case OpWrite, OpAppend:
			if resp.Status != StatusBadRequest {
				set(q.at, q.req.Data, resp.Status == StatusOK)
			}
		case OpRead:
			if q.quiet && resp.Status == StatusOK {
				set(q.at, resp.Data, true)
			}
		case OpTruncate:
			if !q.quiet {
				return nil, false
			}
			model = model[:0]
		}
	}
	return model, true
}
