package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"causet/internal/poset"
	"causet/internal/rt"
	"causet/internal/sim"
)

// FuzzReadJSONAgreement checks ReadJSON against encoding/json, the reference
// it replaces: on every input both accept or both reject, and when both
// accept they decode the same File.
func FuzzReadJSONAgreement(f *testing.F) {
	for _, pat := range sim.Patterns() {
		res, err := sim.Generate(sim.Config{Pattern: pat, Procs: 4, Rounds: 3, Events: 24, Seed: 9})
		if err != nil {
			f.Fatalf("%v: %v", pat, err)
		}
		named := map[string][]poset.EventID{}
		for _, ph := range res.Phases {
			named[ph.Name] = ph.Events
		}
		file := New(res.Exec, named)
		file.SetTiming(rt.Synthesize(res.Exec, rt.SynthesizeConfig{Seed: 5}))
		var buf bytes.Buffer
		if err := file.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, s := range []string{
		// Names: escapes, surrogate pairs, lone surrogates, non-ASCII and
		// invalid UTF-8.
		`{"intervals":[{"name":"a\"b\\c\/d\b\f\n\r\t","events":[{"proc":0,"pos":1}]}]}`,
		`{"intervals":[{"name":"\u00e9\ud83d\ude00\ud800x\udc00\u0000"}]}`,
		`{"intervals":[{"name":"héllo → ☃"}]}`,
		"{\"intervals\":[{\"name\":\"\xff\xfe ok \xed\xa0\x80\"}]}",
		"{\"intervals\":[{\"name\":\"esc\\n and \xff\"}]}",
		// Keys: case folding, including the long s that folds to s, and
		// escaped and invalid-UTF-8 keys.
		`{"Version":1,"COUNTS":[2,2],"Messages":[{"FROM":{"Proc":0,"poſ":1},"To":{"PROC":1,"POS":1}}]}`,
		`{"meſſageſ":[{"from":{"proc":1,"pos":1}}],"INTERVALS":[{"Name":"x","EVENTS":[{"pRoC":0}]}],"Times_NS":[[1]]}`,
		`{"\u0076ersion":1,"co\u0075nts":[1],"\u0070roc":2}`,
		"{\"vers\xffion\":1,\"counts\xc3\":[1]}",
		// Unknown keys holding nested values, at every level.
		`{"extra":{"a":[1,{"b":null}],"c":"x\u0041","d":[true,false,-1.5e+3]},"version":1,` +
			`"messages":[{"from":{"proc":1,"pos":1,"zzz":[[]]},"to":{"proc":0,"pos":1},"note":{}}],` +
			`"intervals":[{"name":"n","events":[],"meta":{"k":[{}]}}]}`,
		`{"extra":[1,2,}`,
		`{"extra":{"a" 1}}`,
		// null in every position.
		`null`,
		` null trailing`,
		`{"version":null,"counts":null,"messages":null,"intervals":null,"times_ns":null}`,
		`{"counts":[null,1],"messages":[null,{"from":null,"to":{"proc":null,"pos":null}}],` +
			`"intervals":[null,{"name":null,"events":[null,{"proc":null}]}],"times_ns":[null,[null,1]]}`,
		`{"version":1,"version":null,"counts":[1],"counts":null}`,
		// Repeated keys decode in place over the first value.
		`{"version":1,"version":2,"counts":[1,2,3],"counts":[4],"counts":[null,null,null]}`,
		`{"counts":[1,2,3],"counts":[],"counts":[null,null]}`,
		`{"messages":[{"from":{"proc":1,"pos":2},"to":{"proc":3}}],"messages":[{"from":{"pos":5}},null]}`,
		`{"intervals":[{"name":"a","events":[{"proc":1,"pos":1},{"proc":2,"pos":2}]}],` +
			`"intervals":[{"events":[null]}],"intervals":[{"events":[null,null]}]}`,
		`{"times_ns":[[1,2],[3]],"times_ns":[[null,null,null],null,[]]}`,
		// Numbers: fractions, exponents, signs and overflow.
		`{"version":1.0}`,
		`{"version":1e0}`,
		`{"version":-0}`,
		`{"version":1E+2}`,
		`{"counts":[9223372036854775807,-9223372036854775808]}`,
		`{"counts":[9223372036854775808]}`,
		`{"counts":[-9223372036854775809]}`,
		`{"counts":[123456789012345678,1234567890123456789]}`,
		`{"times_ns":[[1E400]]}`,
		`{"extra":[1.5e-3,-0.0,0e0,1E400]}`,
		`{"version":01}`,
		`{"version":-}`,
		`{"version":1.}`,
		`{"version":1e}`,
		`{"version":.5}`,
		`{"version":+1}`,
		// Type mismatches.
		`{"version":"1"}`,
		`{"version":true}`,
		`{"counts":{}}`,
		`{"counts":"x"}`,
		`{"messages":[{"from":[]}]}`,
		`{"messages":[1]}`,
		`{"intervals":[{"name":1}]}`,
		`{"times_ns":[1]}`,
		`[]`,
		`1`,
		`"x"`,
		`true`,
		// Syntax errors.
		`{"version":1,}`,
		`{"version" 1}`,
		`{'version':1}`,
		`{"a":tru}`,
		`{"a":nul}`,
		"{\"a\":\"\x01\"}",
		`{"a":"\q"}`,
		`{"a":"\u12"}`,
		`{"a":"\u12G4"}`,
		`{,}`,
		`{"a":1 "b":2}`,
		`{"version":1`,
		`{"intervals":[{"name":"unterminated`,
		"\xef\xbb\xbf{}",
		// Trailing bytes after the first value.
		`{"version":1} garbage`,
		`{}{}`,
		`{"version":1}]`,
		"{}\x00",
		// Whitespace.
		" \t\r\n{ \t\r\n\"version\" \t\r\n: \t\r\n1 \t\r\n, \"counts\" : [ 1 , 2 ] } ",
		"{\"version\":1,\f\"counts\":[]}",
		// Empty input.
		``,
		`   `,
	} {
		f.Add([]byte(s))
	}
	// Nesting at and past encoding/json's limit: the object is one level.
	f.Add([]byte(`{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`))
	f.Add([]byte(`{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`))
	f.Add([]byte(`{"x":` + strings.Repeat(`{"y":`, maxDepth-1) + `1` + strings.Repeat("}", maxDepth-1) + `}`))
	f.Add([]byte(`{"x":` + strings.Repeat(`{"y":`, maxDepth) + `1` + strings.Repeat("}", maxDepth) + `}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadJSON(bytes.NewReader(data))
		var want File
		wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("on %s:\nReadJSON error: %v\nencoding/json error: %v", clip(data), err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(*got, want) {
			t.Fatalf("on %s:\nReadJSON:      %#v\nencoding/json: %#v", clip(data), *got, want)
		}
	})
}

// TestReadJSONReadError checks how a failing reader surfaces, as with
// json.Decoder: an error after a complete value is not seen, and one that
// cuts the value short is the error reported.
func TestReadJSONReadError(t *testing.T) {
	ex, named := sample(t)
	var buf bytes.Buffer
	if err := New(ex, named).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	errRead := errors.New("read failed")
	if _, err := ReadJSON(io.MultiReader(bytes.NewReader(data), iotest.ErrReader(errRead))); err != nil {
		t.Errorf("complete value, then a read error: %v", err)
	}
	_, err := ReadJSON(io.MultiReader(bytes.NewReader(data[:len(data)/2]), iotest.ErrReader(errRead)))
	if !errors.Is(err, errRead) || !strings.HasPrefix(err.Error(), "trace: decoding JSON: ") {
		t.Errorf("half a value, then a read error: err = %v, want the read error", err)
	}
}

// clip quotes an input for a failure message, cut to its first 200 bytes.
func clip(data []byte) string {
	if len(data) > 200 {
		return strconv.Quote(string(data[:200])) + "..."
	}
	return strconv.Quote(string(data))
}
