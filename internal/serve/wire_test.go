package serve_test

// The two halves of the answer wire format. The strict reader behind
// ShardClient, in both of its modes (the full decode, and the
// verify-only pass a relay runs): real answers decode to what
// encoding/json makes of them, every damaged or merely unfamiliar body
// is refused, and — the property the router's byte forwarding rests
// on — nothing is ever
// accepted that encoding/json would refuse or read differently
// (FuzzShardDecode). The append encoder behind every served answer:
// its bytes are encoding/json's, and the strict reader takes them back
// to the answer they encode (FuzzAnswerEncode).

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"bagraph/internal/bfs"
	"bagraph/internal/fault"
	"bagraph/internal/serve"
	"bagraph/internal/sssp"
)

var answerKinds = []string{"cc", "bfs", "sssp"}

// realAnswers fetches one 200 body per query kind from a live daemon.
func realAnswers(t testing.TB) map[string][]byte {
	t.Helper()
	ts, _ := newTestServer(t)
	fetch := func(hc *http.Client, kind, query string) []byte {
		resp, err := hc.Post(ts.URL+"/query/"+kind, "application/json", strings.NewReader(query))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v", kind, resp.StatusCode, err)
		}
		return raw
	}
	queries := map[string]string{
		"cc":   `{"graph":"cm","labels":true}`,
		"bfs":  `{"graph":"cm","root":3}`,
		"sssp": `{"graph":"cm","root":3}`,
	}
	out := make(map[string][]byte)
	for kind, q := range queries {
		out[kind] = fetch(http.DefaultClient, kind, q)
	}
	// The same answers as internal/fault's two byte faults deliver them.
	script := fault.NewScript()
	tr := fault.NewTransport(script, nil)
	defer tr.CloseIdleConnections()
	target := strings.TrimPrefix(ts.URL, "http://")
	for kind, q := range queries {
		script.Queue(target, fault.Fault{Kind: fault.Truncate}, fault.Fault{Kind: fault.Corrupt})
		out[kind+"/truncated"] = fetch(&http.Client{Transport: tr}, kind, q)
		out[kind+"/corrupted"] = fetch(&http.Client{Transport: tr}, kind, q)
	}
	return out
}

// hostileBodies are bodies no shard's encoder produces; the reader must
// refuse each as every kind. Several are fine by encoding/json — the
// reader may refuse more than it does, never less.
var hostileBodies = map[string]string{
	"leading zero":      `{"graph":"g","dist":[1,02,3]}` + "\n",
	"negative":          `{"graph":"g","dist":[1,-1,3]}` + "\n",
	"exponent":          `{"graph":"g","dist":[1,1e3,3]}` + "\n",
	"fraction":          `{"graph":"g","dist":[1,2.0,3]}` + "\n",
	"2^32":              `{"graph":"g","dist":[1,4294967296]}` + "\n", // in range for sssp's 64-bit distances only
	"2^64":              `{"graph":"g","dist":[1,18446744073709551616]}` + "\n",
	"trailing garbage":  `{"graph":"g","dist":[1,2,3]}` + "\n{}",
	"no final newline":  `{"graph":"g","dist":[1,2,3]}`,
	"double comma":      `{"graph":"g","dist":[1,,3]}` + "\n",
	"trailing comma":    `{"graph":"g","dist":[1,2,]}` + "\n",
	"space in array":    `{"graph":"g","dist":[1, 2]}` + "\n",
	"member after":      `{"graph":"g","dist":[1,2],"reached":2}` + "\n",
	"nested key":        `{"graph":"g","stats":{"passes":1,"dist":[1,2]}` + "\n",
	"head not JSON":     `{"graph":g,"dist":[1,2]}` + "\n",
	"head wrong type":   `{"graph":"g","epoch":"one","dist":[1,2]}` + "\n",
	"array of arrays":   `{"graph":"g","dist":[[1,2]]}` + "\n",
	"unclosed":          `{"graph":"g","dist":[1,2`,
	"empty":             ``,
	"long unknown head": `{"graph":"g","pad":"` + strings.Repeat("x", 8<<10) + `","dist":[1,2]}` + "\n",
}

// headOf is an answer with its array dropped.
func headOf(v any) any {
	switch r := v.(type) {
	case *serve.CCResponse:
		c := *r
		c.Labels = nil
		return &c
	case *serve.BFSResponse:
		c := *r
		c.Dist = nil
		return &c
	default:
		c := *r.(*serve.SSSPResponse)
		c.Dist = nil
		return &c
	}
}

// decodeBoth runs the strict reader over raw in both of its modes: the
// full decode and the verify-only pass a ShardClient relays with. They
// must accept or refuse raw together and, accepting it, decode the same
// head. It returns the full decode.
func decodeBoth(t *testing.T, kind string, raw []byte) (any, error) {
	t.Helper()
	got, err := serve.DecodeAnswer(kind, raw)
	head, verr := serve.VerifyAnswer(kind, raw)
	if (err == nil) != (verr == nil) {
		t.Fatalf("%s: full decode says %v, verify-only says %v, on %.300q", kind, err, verr, raw)
	}
	if err == nil && !reflect.DeepEqual(headOf(got), headOf(head)) {
		t.Fatalf("%s: full decode read head %+v, verify-only %+v, from %.300q", kind, headOf(got), headOf(head), raw)
	}
	return got, err
}

func TestShardDecode(t *testing.T) {
	bodies := realAnswers(t)
	for _, kind := range answerKinds {
		got, err := decodeBoth(t, kind, bodies[kind])
		if err != nil {
			t.Fatalf("%s: real answer refused: %v", kind, err)
		}
		want := reflect.New(reflect.TypeOf(got).Elem()).Interface()
		if err := json.Unmarshal(bodies[kind], want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: strict reader and encoding/json disagree on a real answer", kind)
		}
		for _, damage := range []string{"/truncated", "/corrupted"} {
			if _, err := decodeBoth(t, kind, bodies[kind+damage]); err == nil {
				t.Fatalf("%s: accepted", kind+damage)
			}
		}
	}
	for name, body := range hostileBodies {
		for _, kind := range answerKinds {
			if name == "2^32" && kind == "sssp" {
				continue
			}
			b := body
			if kind == "cc" {
				b = strings.Replace(b, `"dist"`, `"labels"`, 1)
			}
			if _, err := decodeBoth(t, kind, []byte(b)); err == nil {
				t.Errorf("%s as %s: accepted %q", name, kind, b)
			}
		}
	}
	// The widest elements of each width are in range.
	if _, err := decodeBoth(t, "bfs", []byte(`{"graph":"g","dist":[0,4294967295]}`+"\n")); err != nil {
		t.Errorf("MaxUint32 hop refused: %v", err)
	}
	if _, err := decodeBoth(t, "sssp", []byte(`{"graph":"g","dist":[0,18446744073709551615]}`+"\n")); err != nil {
		t.Errorf("MaxUint64 distance refused: %v", err)
	}
}

// FuzzShardDecode is the soundness check: whatever the strict reader
// accepts, json.Unmarshal accepts too and yields a deeply equal struct;
// and the verify-only pass a ShardClient relays with accepts exactly
// what the full decode does, reading the same head.
func FuzzShardDecode(f *testing.F) {
	for name, body := range realAnswers(f) {
		kind := uint8(0)
		for i, k := range answerKinds {
			if strings.HasPrefix(name, k) {
				kind = uint8(i)
			}
		}
		f.Add(kind, body)
		f.Add(kind, body[:len(body)/2])
		f.Add(kind, bytes.TrimSuffix(body, []byte("\n")))
	}
	for _, body := range hostileBodies {
		f.Add(uint8(0), []byte(strings.Replace(body, `"dist"`, `"labels"`, 1)))
		f.Add(uint8(1), []byte(body))
		f.Add(uint8(2), []byte(body))
	}
	f.Add(uint8(0), []byte(`{"graph":"g","components":2,"cached":true,"stats":{"passes":1}}`+"\n"))
	f.Add(uint8(1), []byte(`{"graph":"g","dist":[]}`+"\n"))
	f.Add(uint8(2), []byte(`{"graph":"g","dist":[1],"dist":[2,3]}`+"\n"))
	f.Add(uint8(1), []byte(`{"graph":"g","\"dist":[1,2]}`+"\n")) // the key's opening quote is inside a string
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		got, err := decodeBoth(t, answerKinds[int(kind)%len(answerKinds)], data)
		if err != nil {
			return
		}
		want := reflect.New(reflect.TypeOf(got).Elem()).Interface()
		if err := json.Unmarshal(data, want); err != nil {
			t.Fatalf("accepted a body encoding/json refuses (%v): %q", err, data)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %+v, encoding/json %+v, from %q", got, want, data)
		}
	})
}

// fuzzElems reads an answer array from fuzzer bytes: each byte picks a
// boundary value, itself, or — with the eight bytes after it — any
// 64-bit value. Narrower arrays truncate, so MaxUint64 reads as
// MaxUint32 there. No bytes is a nil array unless empty is set.
func fuzzElems(p []byte, empty bool) []uint64 {
	var out []uint64
	if empty {
		out = []uint64{}
	}
	for len(p) > 0 {
		sel := p[0]
		p = p[1:]
		switch sel % 8 {
		case 0:
			out = append(out, 0)
		case 1:
			out = append(out, uint64(bfs.Inf))
		case 2:
			out = append(out, sssp.Inf)
		case 3:
			out = append(out, math.MaxUint64)
		case 4:
			var v uint64
			for i := 0; i < 8 && len(p) > 0; i++ {
				v, p = v<<8|uint64(p[0]), p[1:]
			}
			out = append(out, v)
		default:
			out = append(out, uint64(sel))
		}
	}
	return out
}

func narrow(v []uint64) []uint32 {
	if v == nil {
		return nil
	}
	out := make([]uint32, len(v))
	for i, e := range v {
		out[i] = uint32(e)
	}
	return out
}

// FuzzAnswerEncode is the encoder's proof: for any answer of any kind
// its bytes equal what json.Encoder.Encode emits, and the strict
// reader accepts them and decodes the answer back — the graph name as
// encoding/json carries it (invalid UTF-8 becomes U+FFFD), an empty
// labels array as the omitted member it encodes to.
func FuzzAnswerEncode(f *testing.F) {
	f.Add(uint8(0), "cm", uint64(1), uint64(12345), uint8(0), []byte{0, 5, 9, 200})
	f.Add(uint8(0), "cm", uint64(2), uint64(7), uint8(0xff), []byte{})
	f.Add(uint8(1), "<a href=\"x\">&</a>", uint64(3), uint64(1)<<40, uint8(1), []byte{1, 1, 0, 7})
	f.Add(uint8(1), "\u2028\u2029\x00\x1f\x7f", uint64(0), uint64(0), uint8(0), []byte{})
	f.Add(uint8(1), "g", uint64(9), uint64(3), uint8(1), []byte{})
	f.Add(uint8(2), "bad\xff\xfeutf8", uint64(math.MaxUint64), uint64(math.MaxUint64), uint8(6), []byte{2, 3, 4, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(2), "", uint64(4), uint64(99), uint8(2), []byte{0})
	// Arrays long enough to grow the buffer over several blocks.
	f.Add(uint8(0), "big", uint64(5), uint64(11), uint8(0), bytes.Repeat([]byte{9, 1, 0}, 1500))
	f.Add(uint8(2), "big", uint64(5), uint64(11), uint8(0), bytes.Repeat([]byte{3, 2, 200}, 1500))
	f.Fuzz(func(t *testing.T, kind uint8, graph string, epoch, stat uint64, flags uint8, data []byte) {
		graph = graph[:min(len(graph), 512)] // escaped, still within the reader's head room
		// The graph name as encoding/json carries it.
		quoted, _ := json.Marshal(graph) // a string always encodes
		var name string
		if err := json.Unmarshal(quoted, &name); err != nil {
			t.Fatal(err)
		}
		elems := fuzzElems(data, flags&1 != 0)
		zeroIf := func(bit uint8, v uint64) uint64 {
			if flags&bit != 0 {
				return 0
			}
			return v
		}
		stats := serve.QueryStats{
			Passes:       int(stat % 1000),
			LabelStores:  zeroIf(2, stat),
			DistStores:   zeroIf(4, stat>>3),
			Waves:        int(zeroIf(8, stat>>50)),
			WordsScanned: zeroIf(16, stat*7),
		}
		var v, want any
		switch kind % 3 {
		case 0:
			r := &serve.CCResponse{Graph: graph, Epoch: epoch, Algo: "par-hybrid", Components: int(stat >> 4),
				Cached: flags&32 != 0, Stale: flags&64 != 0, Stats: stats, Labels: narrow(elems)}
			w := *r
			w.Graph = name
			if len(w.Labels) == 0 {
				w.Labels = nil // omitempty
			}
			v, want = r, &w
		case 1:
			r := &serve.BFSResponse{Graph: graph, Epoch: epoch, Algo: "ms", Root: uint32(stat), Batch: int(flags),
				Reached: -int(stat >> 2), Stats: stats, Dist: narrow(elems)}
			w := *r
			w.Graph = name
			v, want = r, &w
		default:
			r := &serve.SSSPResponse{Graph: graph, Epoch: epoch, Algo: "dijkstra", Root: uint32(stat >> 32), Batch: 1,
				Reached: int(stat >> 1), Sum: stat, Stats: stats, Dist: elems}
			w := *r
			w.Graph = name
			v, want = r, &w
		}
		got, err := serve.EncodeAnswer(v)
		if err != nil {
			t.Fatal(err)
		}
		var ref bytes.Buffer
		if err := json.NewEncoder(&ref).Encode(v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref.Bytes()) {
			t.Fatalf("encoder and encoding/json disagree\nencoder: %q\njson:    %q", got, ref.Bytes())
		}

		back, err := serve.DecodeAnswer(answerKinds[kind%3], got)
		if err != nil {
			t.Fatalf("strict reader refused the encoder's bytes (%v): %q", err, got)
		}
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("round trip changed the answer\ndecoded: %+v\nwant:    %+v", back, want)
		}
	})
}
