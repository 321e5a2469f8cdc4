package smartnic

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"nocpu/internal/msg"
)

var errTest = errors.New("provider gone")

// openTestFile boots an app on m that opens name over a queue of the given
// size.
func openTestFile(t *testing.T, m *machine, app msg.AppID, name string, entries uint16) *FileClient {
	t.Helper()
	var fc *FileClient
	m.nic.AddApp(&testApp{id: app, onBoot: func(rt *Runtime) {
		rt.OpenFile(Decentralized, mcID, name, 0, entries, func(c FileAPI, err error) {
			if err != nil {
				t.Errorf("open: %v", err)
			}
			fc, _ = c.(*FileClient)
		})
	}})
	m.eng.Run()
	if fc == nil {
		t.Fatal("no client")
	}
	return fc
}

// fileRecorder is a FileCompletion that keeps what it was given, a read's
// Data copied since it is lent, and may issue the record again from inside
// the completion.
type fileRecorder struct {
	calls  int
	errs   []error
	sizes  []uint64
	data   [][]byte
	onDone func(op *FileOp)
}

func (r *fileRecorder) FileDone(op *FileOp, err error) {
	r.calls++
	r.errs = append(r.errs, err)
	r.sizes = append(r.sizes, op.Size)
	r.data = append(r.data, bytes.Clone(op.Data))
	if r.onDone != nil {
		r.onDone(op)
	}
}

// fileRead reads n bytes at off through f's record path and runs m until
// the read has completed.
func fileRead(t *testing.T, m *machine, f FileAPI, off uint64, n int) ([]byte, error) {
	t.Helper()
	rec := fileDo(t, m, func(op *FileOp, rec *fileRecorder) { f.ReadOp(op, off, n, rec) })
	return rec.data[0], rec.errs[0]
}

// fileDo issues one record through issue and runs m; the request must
// have completed once.
func fileDo(t *testing.T, m *machine, issue func(op *FileOp, rec *fileRecorder)) *fileRecorder {
	t.Helper()
	rec := &fileRecorder{}
	issue(new(FileOp), rec)
	m.run()
	if rec.calls != 1 {
		t.Fatalf("file request completed %d times", rec.calls)
	}
	return rec
}

// A write whose offset wraps used to leave its descriptor pair waiting for
// a done that never fired. Over a queue of one pair: the request completes
// (refused, StatusBadRequest) and the pair serves the next one.
func TestWrappingWriteCompletesAndFreesThePair(t *testing.T) {
	m := newMachine(t)
	m.createFile(t, "kv.dat", []byte("seed"))
	fc := openTestFile(t, m, 7, "kv.dat", 2)
	w := &fileRecorder{}
	var op FileOp
	op.Payload(10)
	fc.WriteOp(&op, ^uint64(0)-3, w)
	m.eng.Run()
	calls, werr := w.calls, w.errs[0]
	if calls != 1 || werr == nil || !strings.Contains(werr.Error(), "status 1") {
		t.Fatalf("%d completions, err %v, want one StatusBadRequest", calls, werr)
	}
	got, err := fileRead(t, m, fc, 0, 4)
	if err != nil {
		t.Error(err)
	}
	if string(got) != "seed" || fc.Conn.Queue.InFlight() != 0 || fc.Conn.Queue.Dead() {
		t.Errorf("next request on the pair read %q (in flight %d)", got, fc.Conn.Queue.InFlight())
	}
}

// A FileOp is idle inside its completion and may be reissued there. A
// read's Data is lent: a view of the queue's reap buffer, which every
// request on the pair reuses, so it is read inside FileDone, where each
// completion sees its own request's bytes.
func TestFileOpReissueAndDataView(t *testing.T) {
	m := newMachine(t)
	m.createFile(t, "kv.dat", []byte("0123456789abcdef"))
	fc := openTestFile(t, m, 7, "kv.dat", 2) // one pair: every request reuses it
	var op FileOp
	rec := &fileRecorder{}
	wants := []string{"01234567", "89abcdef", "", "01WXYZ67"}
	rec.onDone = func(op *FileOp) {
		if i := rec.calls - 1; string(op.Data) != wants[i] || op.Size != 16 {
			t.Errorf("completion %d: Data %q size %d, want %q", i, op.Data, op.Size, wants[i])
		}
		switch rec.calls {
		case 1:
			fc.ReadOp(op, 8, 8, rec)
		case 2:
			copy(op.Payload(4), "WXYZ")
			fc.WriteOp(op, 2, rec)
		case 3:
			fc.ReadOp(op, 0, 8, rec)
		}
	}
	fc.ReadOp(&op, 0, 8, rec)
	m.eng.Run()
	if rec.calls != 4 || op.done != nil {
		t.Fatalf("%d completions, errs %v", rec.calls, rec.errs)
	}
	for i, want := range wants { // the recorder's copies
		if rec.errs[i] != nil || string(rec.data[i]) != want {
			t.Errorf("completion %d: kept %q err %v, want %q", i, rec.data[i], rec.errs[i], want)
		}
	}
	if op.Off() != 0 {
		t.Errorf("Off() = %d after the last issue", op.Off())
	}
	// Issuing a pending record is a bug in the issuer.
	fc.ReadOp(&op, 0, 1, &fileRecorder{})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("reissuing a pending FileOp did not panic")
			}
		}()
		fc.ReadOp(&op, 0, 1, rec)
	}()
	m.eng.Run()
}

// What cannot be sent completes synchronously with an error and leaves the
// record idle: an oversized read or payload, a full queue.
func TestFileOpRefusedSynchronously(t *testing.T) {
	m := newMachine(t)
	m.createFile(t, "kv.dat", []byte("x"))
	fc := openTestFile(t, m, 7, "kv.dat", 2)
	rec := &fileRecorder{}
	var op, second FileOp
	fc.ReadOp(&op, 0, fc.MaxIO()+1, rec)
	op.Payload(fc.MaxIO() + 1)
	fc.WriteOp(&op, 0, rec)
	if rec.calls != 2 || rec.errs[0] == nil || rec.errs[1] == nil || op.done != nil {
		t.Fatalf("oversized requests: %d completions, errs %v", rec.calls, rec.errs)
	}
	fc.ReadOp(&op, 0, 1, rec)
	fc.ReadOp(&second, 0, 1, rec) // the one pair is taken
	if rec.calls != 3 || rec.errs[2] == nil || !strings.Contains(rec.errs[2].Error(), "queue full") {
		t.Fatalf("full queue: %d completions, errs %v", rec.calls, rec.errs)
	}
	m.eng.Run()
	if rec.calls != 4 || rec.errs[3] != nil || !bytes.Equal(rec.data[3], []byte("x")) {
		t.Errorf("the request that was in flight: %d completions, errs %v", rec.calls, rec.errs)
	}
}

// Quiesce with file ops in flight fires no completion, ever; Fail fires
// each exactly once, with the error.
func TestFileOpAcrossQuiesceAndFail(t *testing.T) {
	for _, quiesce := range []bool{true, false} {
		m := newMachine(t)
		m.createFile(t, "kv.dat", []byte("0123456789"))
		fc := openTestFile(t, m, 7, "kv.dat", 8)
		rec := &fileRecorder{}
		var ops [3]FileOp
		for i := range ops {
			fc.ReadOp(&ops[i], uint64(i), 4, rec)
		}
		m.eng.RunFor(2000) // published, not yet answered
		if fc.Conn.Queue.InFlight() != 3 {
			t.Fatalf("%d in flight", fc.Conn.Queue.InFlight())
		}
		if quiesce {
			fc.Conn.Queue.Quiesce()
		} else {
			fc.Fail(errTest)
		}
		m.eng.Run() // the SSD still answers; the responses land in a dead queue
		want := 0
		if !quiesce {
			want = 3
		}
		if rec.calls != want {
			t.Errorf("quiesce=%v: %d completions, want %d", quiesce, rec.calls, want)
		}
		for _, err := range rec.errs {
			if err == nil {
				t.Errorf("quiesce=%v: a failed queue completed a request without error", quiesce)
			}
		}
	}
}
