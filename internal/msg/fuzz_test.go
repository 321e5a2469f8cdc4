package msg

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the wire decoder. Two properties:
//
//  1. Decode never panics and never over-allocates (the list-count
//     bomb guard) — any input either yields an envelope or an error.
//  2. Anything that decodes re-encodes to an envelope that decodes to
//     the same value (decode→encode→decode fixpoint). Byte-identity is
//     deliberately NOT required: the codec may canonicalize (e.g. a
//     truncated-then-padded string length), but the value must be
//     stable.
//
// The seed corpus in testdata/fuzz/FuzzDecode covers every message kind
// including Nack and the sequence-tagged header.
func FuzzDecode(f *testing.F) {
	for _, m := range allMessages() {
		f.Add(Envelope{Src: 1, Dst: 2, Seq: 9, Msg: m}.Encode())
	}
	// Adversarial seeds: empty, short header, bad kind, length bomb.
	f.Add([]byte{})
	f.Add([]byte{1, 0, 2, 0})
	f.Add([]byte{1, 0, 2, 0, 0xEE, 0xEE, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	// New wire forms: a rejoin Hello carrying its trailing incarnation
	// field, and a state-reconciliation answer with grantee lists.
	f.Add(Envelope{Src: 1, Dst: BusID, Seq: 2, Inc: 1,
		Msg: &Hello{Role: RoleNIC, Name: "nic0", Incarnation: 1}}.Encode())
	f.Add(Envelope{Src: BusID, Dst: 1, Seq: 3,
		Msg: &StateResp{Nonce: 1, Regions: []OwnedRegion{{App: 1, VA: 0x1000, Pages: 1, Grantees: []DeviceID{2}}}}}.Encode())

	f.Fuzz(func(t *testing.T, b []byte) {
		env, err := Decode(b)
		if err != nil {
			return
		}
		again, err2 := Decode(env.Encode())
		if err2 != nil {
			t.Fatalf("re-decode of valid envelope failed: %v", err2)
		}
		if again.Src != env.Src || again.Dst != env.Dst || again.Seq != env.Seq || again.Inc != env.Inc {
			t.Fatalf("header not stable: %+v vs %+v", again, env)
		}
		if !reflect.DeepEqual(again.Msg, env.Msg) {
			t.Fatalf("message not stable:\n got %+v\nwant %+v", again.Msg, env.Msg)
		}
	})
}

// FuzzRoundTrip holds every kind's one wire body to a fixed point at the
// byte level: whatever body decodes must re-encode to a canonical frame
// that decodes to the same message and encodes to the same bytes again
// (decode → encode → decode). A body cannot encode one layout and decode
// another, but its ops can still canonicalize, and this is what checks
// them. FuzzDecode reaches a kind only when the fuzzer guesses a valid
// header; here the kind is an input and the header is built around the
// body, so all 47 bodies get mutated input from the first iteration.
// Decode borrows from its input, so the input must also come back
// untouched. The body also decodes into a message of its kind with every
// field already set, and must come out equal to the fresh decode: a
// reused body (DecodeInto) keeps nothing of what it held.
func FuzzRoundTrip(f *testing.F) {
	for _, m := range allMessages() {
		enc := Envelope{Src: 1, Dst: 2, Seq: 9, Msg: m}.Encode()
		f.Add(uint16(m.Kind()-1), enc[headerSize:]) // the target reads kind as KindInvalid+1+kind
	}
	f.Fuzz(func(t *testing.T, kind uint16, body []byte) {
		k := KindInvalid + 1 + Kind(kind)%(kindMax-1)
		in := frame(Envelope{Src: 1, Dst: 2, Seq: 9, Inc: 1}, k, body)
		before := bytes.Clone(in)

		env, err := Decode(in)
		if !bytes.Equal(in, before) {
			t.Fatalf("%v: Decode wrote into its input", k)
		}
		if err != nil {
			return
		}
		if env.Msg.Kind() != k {
			t.Fatalf("header kind %v decoded as %v", k, env.Msg.Kind())
		}
		held := reflect.New(reflect.TypeOf(env.Msg).Elem())
		filled(held.Elem(), 2)
		into := held.Interface().(Message)
		if reused, err := DecodeInto(in, func(Kind) Message { return into }); err != nil || !reflect.DeepEqual(reused, env) {
			t.Fatalf("%v: decoded over a filled body:\n got %+v (%v)\nwant %+v", k, reused.Msg, err, env.Msg)
		}
		canon := env.Encode()
		again, err := Decode(canon)
		if err != nil {
			t.Fatalf("%v: canonical frame does not decode: %v", k, err)
		}
		if !reflect.DeepEqual(again, env) {
			t.Fatalf("%v: not a fixed point:\n got %+v\nwant %+v", k, again.Msg, env.Msg)
		}
		if twice := again.Encode(); !bytes.Equal(twice, canon) {
			t.Fatalf("%v: canonical frame re-encodes differently:\n got %x\nwant %x", k, twice, canon)
		}
	})
}
