package serve_test

// The strict reader behind ShardClient: real answers decode to what
// encoding/json makes of them, every damaged or merely unfamiliar body
// is refused, and — the property the router's byte forwarding rests on
// — nothing is ever accepted that encoding/json would refuse or read
// differently (FuzzShardDecode).

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"bagraph/internal/fault"
	"bagraph/internal/serve"
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

func TestShardDecode(t *testing.T) {
	bodies := realAnswers(t)
	for _, kind := range answerKinds {
		got, err := serve.DecodeAnswer(kind, bodies[kind])
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
			if _, err := serve.DecodeAnswer(kind, bodies[kind+damage]); err == nil {
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
			if _, err := serve.DecodeAnswer(kind, []byte(b)); err == nil {
				t.Errorf("%s as %s: accepted %q", name, kind, b)
			}
		}
	}
	// The widest elements of each width are in range.
	if _, err := serve.DecodeAnswer("bfs", []byte(`{"graph":"g","dist":[0,4294967295]}`+"\n")); err != nil {
		t.Errorf("MaxUint32 hop refused: %v", err)
	}
	if _, err := serve.DecodeAnswer("sssp", []byte(`{"graph":"g","dist":[0,18446744073709551615]}`+"\n")); err != nil {
		t.Errorf("MaxUint64 distance refused: %v", err)
	}
}

// FuzzShardDecode is the soundness check: whatever the strict reader
// accepts, json.Unmarshal accepts too and yields a deeply equal struct.
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
		got, err := serve.DecodeAnswer(answerKinds[int(kind)%len(answerKinds)], data)
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
