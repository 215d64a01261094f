package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// jsonRequestSeeds are request bodies around every rule of the vector
// walk: what it parses itself, what it hands to encoding/json, and what
// it declines so that encoding/json decides.
func jsonRequestSeeds() []string {
	numbers := []string{
		"-0", "1e-7", "1E+21", "5e-324", "2.2250738585072011e-308", "1e999", "-1e999", "1e-999",
		"01", "1.", ".5", "+1", "-", "1e", "1e+", "NaN", "Infinity", "0x1p-2", "1_0", "1,", ",1", "1 2",
		"null", "true", `"1"`, "[1]", "{}", "0.1234567890123456789012345678901234567890", "123456789012345678901234567890",
	}
	seeds := []string{
		// The benchmark's body: addressing first, then one long vector.
		`{"k":2,"matrix":"m","method":"s2d","x":[0.6046602879796196,-0.9405090880450124,0.6645600532184904]}`,
		`{"matrix":"m","xs":[[1,2],[3,4]],"transpose":true,"deadline_ms":50,"timings":true}`,
		`{"matrix":"m","b":[1,2,3],"solver":"cg","tol":1e-9,"max_iter":10}`,
		`{"x":[1],"matrix":"m"}`, `{"matrix":"m","x":[1],"k":4}`,
		`{"X":[1],"matrix":"m"}`, `{"x":[1],"X":[2]}`, `{"X":[2],"x":[1]}`, `{"x":[1],"X":null}`, `{"Xs":[[1]],"x":[2]}`,
		`{"x":[1],"x":[2,3]}`, `{"x":[1,2,3],"x":[4]}`, `{"b":[1],"B":[2]}`, `{"xs":[[1]],"xs":[[2]]}`,
		`{"x":[1]}`, `{"xs":[[1]]}`, `{"xſ":[[1]]}`, `{"K":3,"MATRIX":"m","x":[1]}`, `{"K":3,"x":[1]}`,
		`{"x":[],"xs":[]}`, `{"xs":[[],[]]}`, `{"xs":[[1],null]}`, `{"xs":null}`, `{"x":null,"b":null}`, `{"xs":[1]}`, `{"x":[[1]]}`,
		" {\n\t\"k\" : 4 ,\r\n \"x\" : [ 1 , 2 ] , \"matrix\" : \"a,b]}\\\"\" } \n",
		`{"matrix":5,"x":[1]}`, `{"matrix":5,"x":[1,"a"]}`, `{"k":"4","x":[1]}`, `{"k":1.5,"b":[1]}`, `{"timings":1,"x":[1]}`,
		`{"unknown":{"x":[1,"a"],"s":"]}"},"x":[7],"list":[[1],[2,[3]]]}`,
		`{"x":[1,2`, `{"x":[1,2]`, `{"x":[1,2]} x`, `{"x":[1,2]}{}`, `{"x" [1]}`, `{"a":1 "x":[1]}`, `{"x":[1],}`, `{,"x":[1]}`,
		`{"matrix":"unterminated`, `{"matrix":"bad \q escape","x":[1]}`, "{\"matrix\":\"ctl\x01\",\"x\":[1]}", "{\"matrix\":\"\xff\",\"x\":[1]}",
		`{"matrix":}`, `{"x":[1],"matrix":}`, `{"x":}`, `{`, `{}`, `[]`, `[1,2]`, `null`, `"x"`, `1`, ``, "\ufeff{}",
	}
	for _, n := range numbers {
		seeds = append(seeds,
			`{"matrix":"m","x":[`+n+`]}`, `{"x":[1,`+n+`,2]}`, `{"xs":[[0],[`+n+`]]}`, `{"b":[ `+n+` ],"tol":`+n+`}`)
	}
	return seeds
}

func sameBitsOrNil(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkJSONRequest holds both handlers' JSON decode to encoding/json's
// on body: the same verdict, the same message, every field equal and
// every float equal bit for bit.
func checkJSONRequest(t *testing.T, body []byte) {
	t.Helper()
	sameErr := func(got, want error) {
		t.Helper()
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("%.200q: decodeJSON says %v, json.Unmarshal %v", body, got, want)
		}
	}

	var gotM, wantM multiplyRequest
	sameErr(gotM.decodeJSON(body), json.Unmarshal(body, &wantM))
	if !sameBitsOrNil(gotM.X, wantM.X) || (gotM.Xs == nil) != (wantM.Xs == nil) || len(gotM.Xs) != len(wantM.Xs) {
		t.Fatalf("%.200q: multiply vectors: got x %v xs %v, want x %v xs %v", body, gotM.X, gotM.Xs, wantM.X, wantM.Xs)
	}
	for i := range gotM.Xs {
		if !sameBitsOrNil(gotM.Xs[i], wantM.Xs[i]) {
			t.Fatalf("%.200q: xs[%d]: got %v, want %v", body, i, gotM.Xs[i], wantM.Xs[i])
		}
	}
	gotM.X, gotM.Xs, wantM.X, wantM.Xs = nil, nil, nil, nil
	if !reflect.DeepEqual(gotM, wantM) {
		t.Fatalf("%.200q: multiply fields: got %+v, want %+v", body, gotM, wantM)
	}

	var gotS, wantS solveRequest
	sameErr(gotS.decodeJSON(body), json.Unmarshal(body, &wantS))
	if !sameBitsOrNil(gotS.B, wantS.B) || math.Float64bits(gotS.Tol) != math.Float64bits(wantS.Tol) {
		t.Fatalf("%.200q: solve: got b %v tol %v, want b %v tol %v", body, gotS.B, gotS.Tol, wantS.B, wantS.Tol)
	}
	gotS.B, wantS.B = nil, nil
	if !reflect.DeepEqual(gotS, wantS) {
		t.Fatalf("%.200q: solve fields: got %+v, want %+v", body, gotS, wantS)
	}
}

// FuzzJSONRequest is the differential target for the one place outside
// bytes become floats on the JSON path. CI fuzzes it for a few seconds
// per run; as a unit test it runs the seed corpus.
func FuzzJSONRequest(f *testing.F) {
	for _, s := range jsonRequestSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkJSONRequest(t, body) })
}

// TestJSONRequestSegmented is the same comparison on bodies long enough
// to be parsed in segments where there are the cores (the fuzzer stalls
// on seeds this size): clean, and with a slip in each segment.
func TestJSONRequestSegmented(t *testing.T) {
	const n = 16000 // 336 kB of text
	long := `{"matrix":"m","x":[` + strings.Repeat("-0.12345678901234567,", n) + `1e-7],"k":2}`
	checkJSONRequest(t, []byte(long))
	checkJSONRequest(t, []byte(strings.Replace(long, `"x"`, `"b"`, 1)))
	checkJSONRequest(t, []byte(strings.Replace(long, `"x":[`, `"xs":[[1],[`, 1)+"]"))
	for _, at := range []int{0, n / 2, n} {
		cut := len(`{"matrix":"m","x":[`) + at*len("-0.12345678901234567,")
		for _, slip := range []string{",", "null,", "1e999,", "x", "]"} {
			checkJSONRequest(t, []byte(long[:cut]+slip+long[cut:]))
		}
	}
}
