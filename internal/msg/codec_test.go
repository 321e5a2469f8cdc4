package msg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// le builds a payload by hand, little-endian like the wire, for the
// frames a wire body would never write: a truncated field, a count the
// bytes cannot back, an older form of a message.
type le []byte

func (b le) u8(v uint8) le    { return append(b, v) }
func (b le) u16(v uint16) le  { return binary.LittleEndian.AppendUint16(b, v) }
func (b le) u32(v uint32) le  { return binary.LittleEndian.AppendUint32(b, v) }
func (b le) u64(v uint64) le  { return binary.LittleEndian.AppendUint64(b, v) }
func (b le) str(s string) le  { return append(b.u16(uint16(len(s))), s...) }
func (b le) raw(p ...byte) le { return append(b, p...) }

// frame puts payload under e's header for kind k, its length field
// matching the payload.
func frame(e Envelope, k Kind, payload le) []byte {
	c := coder{mode: encoding}
	n := uint32(len(payload))
	e.header(&c, &k, &n)
	return append(c.buf, payload...)
}

// corpusFrames reads the FuzzDecode seed corpus: one frame per file, in
// file-name order, keyed by the file's name.
func corpusFrames(t *testing.T) (names []string, frames [][]byte) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecode", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus found: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
		lit = strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")")
		b, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: not a []byte corpus entry: %v", f, err)
		}
		names = append(names, filepath.Base(f))
		frames = append(frames, []byte(b))
	}
	return names, frames
}

// corpusEnvelopes decodes every entry of the FuzzDecode seed corpus that
// is a valid envelope (the adversarial seeds mostly are not) — one per
// kind at least, plus the extreme-valued and canonicalizing ones.
func corpusEnvelopes(t *testing.T) []Envelope {
	t.Helper()
	_, frames := corpusFrames(t)
	var out []Envelope
	for _, b := range frames {
		if env, err := Decode(b); err == nil {
			out = append(out, env)
		}
	}
	return out
}

// TestCorpusDecodesPinned holds Decode to what it made of every corpus
// frame when the codec was last changed: the %#v of the message (so a
// list that decodes nil stays nil and an empty one stays empty, and a
// byte field keeps its contents) or the error text of a refusal.
// NOCPU_REGEN_GOLDEN=1 rewrites testdata/decoded.golden after an
// intentional change.
func TestCorpusDecodesPinned(t *testing.T) {
	names, frames := corpusFrames(t)
	var b strings.Builder
	for i, frame := range frames {
		env, err := Decode(frame)
		if err != nil {
			fmt.Fprintf(&b, "%s: error: %v\n", names[i], err)
			continue
		}
		fmt.Fprintf(&b, "%s: src=%d dst=%d seq=%d inc=%d %#v\n", names[i],
			env.Src, env.Dst, env.Seq, env.Inc, reflect.ValueOf(env.Msg).Elem().Interface())
	}
	path := filepath.Join("testdata", "decoded.golden")
	if os.Getenv("NOCPU_REGEN_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("decoded corpus differs from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("decoded corpus differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestCodecAgreement holds the three encode entry points to one wire
// form for every kind: EncodedSize counts what Encode writes (less the
// link tags), AppendEncode extends a prefix with exactly Encode's bytes,
// and the bytes decode back to the envelope.
func TestCodecAgreement(t *testing.T) {
	envs := corpusEnvelopes(t)
	for _, m := range allMessages() {
		envs = append(envs, Envelope{Src: 1, Dst: 2, Seq: 9, Inc: 1, Msg: m})
	}
	seen := map[Kind]bool{}
	prefix := []byte{0xFB, 0x00, 0xAA}
	for _, env := range envs {
		k := env.Msg.Kind()
		seen[k] = true
		enc := env.Encode()
		if got := EncodedSize(env.Msg); got != len(enc)-8 {
			t.Errorf("%v: EncodedSize = %d, Encode wrote %d (want size+8)", k, got, len(enc))
		}
		if got := env.EncodedLen(); got != len(enc) {
			t.Errorf("%v: EncodedLen = %d, Encode wrote %d", k, got, len(enc))
		}
		if cap(enc) != len(enc) {
			t.Errorf("%v: Encode sized its buffer to %d for %d bytes", k, cap(enc), len(enc))
		}
		app := env.AppendEncode(append([]byte(nil), prefix...))
		if !bytes.Equal(app[:len(prefix)], prefix) || !bytes.Equal(app[len(prefix):], enc) {
			t.Errorf("%v: AppendEncode(prefix) != prefix + Encode()", k)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Errorf("%v: decode of own encoding: %v", k, err)
			continue
		}
		if back.Src != env.Src || back.Dst != env.Dst || back.Seq != env.Seq || back.Inc != env.Inc ||
			!reflect.DeepEqual(back.Msg, env.Msg) {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", k, back, env)
		}
	}
	for k := KindInvalid + 1; k < kindMax; k++ {
		if !seen[k] {
			t.Errorf("kind %v not exercised", k)
		}
	}
}

// hotKinds are the messages the rack and control-plane workloads encode
// most: the allocation guards and benchmarks below run over them.
var hotKinds = []struct {
	name string
	m    Message
}{
	{"FabricReq", &FabricReq{Origin: 1, ReqID: 9, Payload: make([]byte, 64)}},
	{"Replicate", &Replicate{Epoch: 1, Seq: 9, Key: "key-00007", Value: make([]byte, 64)}},
	{"LeaseGrant", &LeaseGrant{Seq: 9, Until: 1 << 30}},
	{"AllocReq", &AllocReq{App: 1, VA: 1 << 28, Bytes: 64 << 10, Perm: 3}},
}

// TestEncodeAllocs pins the one-buffer rule: Encode allocates its result
// and nothing else, EncodedSize and AppendEncode into room allocate
// nothing.
func TestEncodeAllocs(t *testing.T) {
	for _, h := range hotKinds {
		env := Envelope{Src: 1, Dst: 2, Seq: 7, Inc: 1, Msg: h.m}
		var out []byte
		n := testing.AllocsPerRun(200, func() { out = env.Encode() })
		t.Logf("%s: Encode %v allocations", h.name, n)
		if n != 1 {
			t.Errorf("%s: Encode allocates %v times, want 1", h.name, n)
		}
		size := 0
		if n := testing.AllocsPerRun(200, func() { size = EncodedSize(h.m) }); n != 0 {
			t.Errorf("%s: EncodedSize allocates %v times, want 0", h.name, n)
		}
		buf := make([]byte, 0, len(out))
		if n := testing.AllocsPerRun(200, func() { out = env.AppendEncode(buf) }); n != 0 {
			t.Errorf("%s: AppendEncode into room allocates %v times, want 0", h.name, n)
		}
		if size != len(out)-8 {
			t.Errorf("%s: size %d, encoding %d", h.name, size, len(out))
		}
	}
}

// TestDecodeAllocs pins what Decode allocates for each hot kind: the
// message, and a Replicate's key string. The coder it decodes with stays
// on its stack only while every body is reached through its concrete
// type; a call through the Message interface would cost one more.
// DecodeInto a body the caller keeps costs only the key string: 0 for a
// FabricReq or a LeaseGrant.
func TestDecodeAllocs(t *testing.T) {
	want := map[string]float64{"FabricReq": 1, "Replicate": 2, "LeaseGrant": 1, "AllocReq": 1}
	wantInto := map[string]float64{"FabricReq": 0, "Replicate": 1, "LeaseGrant": 0, "AllocReq": 0}
	for _, h := range hotKinds {
		frame := Envelope{Src: 1, Dst: 2, Seq: 7, Inc: 1, Msg: h.m}.Encode()
		var err error
		n := testing.AllocsPerRun(200, func() { benchEnv, err = Decode(frame) })
		t.Logf("%s: Decode %v allocations", h.name, n)
		if n != want[h.name] || err != nil {
			t.Errorf("%s: Decode allocates %v times (%v), want %v", h.name, n, err, want[h.name])
		}
		kept := benchEnv.Msg
		body := func(Kind) Message { return kept }
		n = testing.AllocsPerRun(200, func() { benchEnv, err = DecodeInto(frame, body) })
		t.Logf("%s: DecodeInto %v allocations", h.name, n)
		if n != wantInto[h.name] || err != nil || benchEnv.Msg != kept {
			t.Errorf("%s: DecodeInto allocates %v times (%v), want %v into the body it was given", h.name, n, err, wantInto[h.name])
		}
	}
}

// filled sets every field of v from seed, through lists and the structs
// in them: numbers and strings differ between seeds, bools are true, and
// a list or byte field holds seed elements.
func filled(v reflect.Value, seed int) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(seed*37 + 1))
	case reflect.String:
		v.SetString(strings.Repeat("s", seed))
	case reflect.Slice:
		l := reflect.MakeSlice(v.Type(), seed, seed)
		for i := range seed {
			filled(l.Index(i), seed+i)
		}
		v.Set(l)
	case reflect.Struct:
		for i := range v.NumField() {
			filled(v.Field(i), seed+i)
		}
	default:
		panic(fmt.Sprintf("filled: no rule for a %v field", v.Type()))
	}
}

// TestDecodeIntoKeepsNothing: a body decoded into again holds exactly
// what a fresh Decode of the new frame holds, for every kind. Each kind
// moves between two fillings that differ in every field and its zero
// value, so every number and string changes, every bool goes true →
// false, every list and byte field non-empty → empty (and an optional
// trailer present → absent), and back.
func TestDecodeIntoKeepsNothing(t *testing.T) {
	for _, m := range allMessages() {
		typ := reflect.TypeOf(m).Elem()
		var frames [][]byte
		for _, seed := range []int{0, 1, 2} {
			v := reflect.New(typ)
			if seed > 0 {
				filled(v.Elem(), seed)
			}
			frames = append(frames, Envelope{Src: 1, Dst: 2, Seq: uint32(seed), Msg: v.Interface().(Message)}.Encode())
		}
		for _, a := range frames {
			for _, b := range frames {
				held, err := Decode(a)
				if err != nil {
					t.Fatalf("%v: %v", m.Kind(), err)
				}
				got, err := DecodeInto(b, func(Kind) Message { return held.Msg })
				want, _ := Decode(b)
				if err != nil || got.Msg != held.Msg || !reflect.DeepEqual(got, want) {
					t.Errorf("%v: decoded over %+v:\n got %+v (%v)\nwant %+v", m.Kind(), held.Msg, got.Msg, err, want.Msg)
				}
			}
		}
	}
}

var (
	benchBytes []byte
	benchEnv   Envelope
)

func BenchmarkEncode(b *testing.B) {
	for _, h := range hotKinds {
		env := Envelope{Src: 1, Dst: 2, Seq: 7, Inc: 1, Msg: h.m}
		b.Run(h.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchBytes = env.Encode()
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, h := range hotKinds {
		frame := Envelope{Src: 1, Dst: 2, Seq: 7, Inc: 1, Msg: h.m}.Encode()
		b.Run(h.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				env, err := Decode(frame)
				if err != nil {
					b.Fatal(err)
				}
				benchEnv = env
			}
		})
	}
}

// TestDecodeBorrows pins the borrow rule on Decode: a byte field is a
// window onto the frame, clipped so an append cannot reach past it, and
// Decode itself leaves the frame alone, so a frame delivered twice (the
// fault plane's Dup hands both arrivals one buffer) decodes equal both
// times.
//
// The rule is safe because nothing downstream writes into such a field.
// Only the fabric router decodes frames (the in-machine bus passes
// envelopes, it never encodes them back): FabricReq.Payload is parsed by
// kvs.DecodeRequest, which copies, or re-encoded into the next hop's
// frame; FabricResp.Payload goes to the client, which parses it the same
// way; Replicate.Value is copied into the log record the store builds,
// and from there the SSD and physmem sinks copy again (File.WriteAt
// clones each chunk, a DMA write copies into memory). The value cache
// keeps the slice, and only ever reads it.
func TestDecodeBorrows(t *testing.T) {
	for _, c := range []struct {
		name  string
		m     Message
		field func(Message) []byte
	}{
		{"FabricReq", &FabricReq{Origin: 1, ReqID: 9, Payload: []byte("payload")},
			func(m Message) []byte { return m.(*FabricReq).Payload }},
		{"FabricResp", &FabricResp{ReqID: 9, Dead: []DeviceID{3}, Payload: []byte("payload")},
			func(m Message) []byte { return m.(*FabricResp).Payload }},
		{"Replicate", &Replicate{Epoch: 1, Seq: 2, Key: "k", Value: []byte("payload")},
			func(m Message) []byte { return m.(*Replicate).Value }},
		{"FileIOReq", &FileIOReq{App: 1, Handle: 2, Seq: 3, Data: []byte("payload")},
			func(m Message) []byte { return m.(*FileIOReq).Data }},
	} {
		frame := Envelope{Src: 1, Dst: 2, Seq: 7, Msg: c.m}.Encode()
		sent := bytes.Clone(frame)
		first, err := Decode(frame)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		second, err := Decode(frame)
		if err != nil || !reflect.DeepEqual(first, second) {
			t.Errorf("%s: a frame delivered twice decoded as %+v then %+v (%v)", c.name, first.Msg, second.Msg, err)
		}
		if !bytes.Equal(frame, sent) {
			t.Errorf("%s: Decode wrote into the frame", c.name)
		}
		got := c.field(first.Msg)
		if !bytes.Equal(got, []byte("payload")) || cap(got) != len(got) {
			t.Fatalf("%s: field = %q with cap %d, want the payload clipped to its length", c.name, got, cap(got))
		}
		// Aliasing, shown the one way a test can: break the rule and
		// watch the field follow the frame.
		at := bytes.Index(frame, []byte("payload"))
		frame[at] = 'P'
		if got[0] != 'P' {
			t.Errorf("%s: field is a copy, not a window onto the frame", c.name)
		}
	}
}
