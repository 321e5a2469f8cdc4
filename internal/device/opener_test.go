package device

import (
	"testing"

	"nocpu/internal/msg"
)

// held is a client's record of one session, as a placement embeds it.
type held struct{ Opener }

// Answered gives an answer to the opener that asked for it, from the
// provider it asked, and closes an accept no opener asked for or holds:
// one that came after its session ended.
func TestAnsweredMatchesAndClosesStrays(t *testing.T) {
	const ssd, other = msg.DeviceID(2), msg.DeviceID(3)
	a, b := &held{}, &held{}
	a.Open(ssd, "file:a", 7, 0)
	b.Open(ssd, "file:b", 7, 0)
	all := []*held{a, b}
	accept := func(service string, id uint32) *msg.OpenResp {
		return &msg.OpenResp{Service: service, App: 7, OK: true, ConnID: id}
	}

	if o, stray := Answered(all, other, accept("file:b", 4)); o != nil || stray == nil {
		t.Fatalf("an accept from a provider nobody asked answered %v, stray %+v", o, stray)
	}
	o, stray := Answered(all, ssd, accept("file:b", 4))
	if o != b || stray != nil {
		t.Fatalf("b's accept answered %v, stray %+v", o, stray)
	}
	if err := b.Opened(accept("file:b", 4)); err != nil || b.Asked() != nil {
		t.Fatalf("b took its accept: err %v, still asks %v", err, b.Asked())
	}
	// A second copy of b's accept is b's: it holds the ConnID.
	if o, stray := Answered(all, ssd, accept("file:b", 4)); o != nil || stray != nil {
		t.Errorf("a duplicate of a held accept answered %v, stray %+v", o, stray)
	}
	// An accept for a session that ended before it landed is closed.
	want := msg.CloseReq{Service: "file:c", ConnID: 5, App: 7}
	if o, stray := Answered(all, ssd, accept("file:c", 5)); o != nil || stray == nil || *stray != want {
		t.Errorf("a stray accept answered %v, stray %+v, want %+v", o, stray, want)
	}
	// Nothing was accepted by a refusal or by a connect's answer.
	if _, stray := Answered(all, ssd, &msg.OpenResp{Service: "file:c", App: 7, Reason: "no"}); stray != nil {
		t.Errorf("a refusal nobody asked for is closed: %+v", stray)
	}
	if _, stray := Answered(all, ssd, &msg.ConnectResp{ConnID: 9, OK: true}); stray != nil {
		t.Errorf("a connect's answer nobody asked for is closed: %+v", stray)
	}

	if req := a.Abandon(); req != nil {
		t.Errorf("a session nothing accepted closes %+v", req)
	}
	if req := b.Abandon(); req == nil || *req != (msg.CloseReq{Service: "file:b", ConnID: 4, App: 7}) {
		t.Errorf("b's abandon closes %+v, want its accepted ConnID 4", req)
	}
}
