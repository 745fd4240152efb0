package edge

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/pkg/api"
)

// decodeBatchCases are TestDecodeBatch's bodies, which FuzzSplitBatch
// also starts from.
var decodeBatchCases = []struct {
	body   string
	ok     bool
	status int
}{
	{`{"release_id":"r-000001","queries":[{"dims":[0],"lo":[1],"hi":[2]}]}`, true, http.StatusOK},
	{`{"release_id":`, false, http.StatusBadRequest},
	{`{"queries":[{}]}`, false, http.StatusBadRequest},
	{`{"release_id":"r-000001","queries":[]}`, false, http.StatusBadRequest},
	{`{"release_id":"r-000001","queries":[{}],"pad":"` + strings.Repeat("x", 256) + `"}`, false, http.StatusRequestEntityTooLarge},
}

func TestDecodeBatch(t *testing.T) {
	for _, tc := range decodeBatchCases {
		w := httptest.NewRecorder()
		req, ok := DecodeBatch(w, httptest.NewRequest(http.MethodPost, "/v1/query:batch", strings.NewReader(tc.body)), 128)
		if ok != tc.ok || w.Code != tc.status {
			t.Errorf("%s: ok=%v status %d, want ok=%v %d (%s)", tc.body, ok, w.Code, tc.ok, tc.status, w.Body)
		}
		if ok && (req.ReleaseID != "r-000001" || len(req.Queries) != 1) {
			t.Errorf("decoded %+v", req)
		}
	}
}

// TestReadBatch: ReadBatch answers every body as DecodeBatch does, the
// same status and the same bytes when it refuses one, and splits the one
// DecodeBatch accepts.
func TestReadBatch(t *testing.T) {
	for _, tc := range decodeBatchCases {
		want := httptest.NewRecorder()
		DecodeBatch(want, httptest.NewRequest(http.MethodPost, "/v1/query:batch", strings.NewReader(tc.body)), 128)
		got := httptest.NewRecorder()
		b, ok := ReadBatch(got, httptest.NewRequest(http.MethodPost, "/v1/query:batch", strings.NewReader(tc.body)), 128)
		if ok != tc.ok || got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("%s: ok=%v %d %s, want ok=%v %d %s", tc.body, ok, got.Code, got.Body, tc.ok, want.Code, want.Body)
		}
		if ok && (b.ReleaseID != "r-000001" || len(b.Queries) != 1 || string(b.Queries[0]) != `{"dims":[0],"lo":[1],"hi":[2]}`) {
			t.Errorf("split %s as %q %q", tc.body, b.ReleaseID, b.Queries)
		}
	}
}

// rawBatch is the referee's reading of a batch body.
type rawBatch struct {
	ReleaseID string            `json:"release_id"`
	Queries   []json.RawMessage `json:"queries"`
}

// rawAnswer is the referee's reading of a node's batch answer.
type rawAnswer struct {
	Results   []json.RawMessage `json:"results"`
	CacheHits int               `json:"cache_hits"`
}

// FuzzSplitBatch holds both splitters to encoding/json. SplitBatch
// accepts a body iff json.Unmarshal into {release_id string; queries
// []json.RawMessage} does, and then yields the same release ID and the
// same element bytes; whenever it refuses, or finds no release ID or no
// query, DecodeBatch refuses the body too, so ReadBatch's refusals are
// DecodeBatch's. SplitBatchAnswer accepts a body iff it is an object
// that json.Unmarshal reads into {results []json.RawMessage; cache_hits
// int} with every result an object, and then yields the same results
// and cache_hits, whatever result count it is told to expect.
func FuzzSplitBatch(f *testing.F) {
	for _, tc := range decodeBatchCases {
		f.Add([]byte(tc.body))
	}
	for _, s := range []string{
		`null`, ` null `, `[]`, `"x"`, `5`, `{}`, ``, ` `,
		`{"RELEASE_ID":"a","Queries":[{}]}`,
		`{"Release_Id":"a","qUeRiEs":[1,2]}`,
		`{"releaſe_id":"a","querieſ":[{}]}`, // U+017F folds to s
		`{"release_İd":"a","queries":[{}]}`, // U+0130 folds to nothing ASCII
		`{"rel\u0065ase_id":"a","\u0071ueries":[{}]}`,
		`{"release_id":"a","release_id":"b","queries":[{}],"queries":[{},{}]}`,
		`{"release_id":"a","release_id":null,"queries":[{}]}`,
		`{"release_id":"a","queries":[{}],"queries":null}`,
		`{"release_id":"a","queries":null,"queries":[]}`,
		`{"release_id":"a","queries":[null,{}]}`,
		`{"release_id":"a","queries":5}`,
		`{"release_id":5,"queries":[{}]}`,
		`{"release_id":"a","queries":[{}],"queries":"x"}`,
		`{"release_id":"a","unknown":{"queries":[1],"x":[{"]":"["}]},"queries":[{"agg":"s\"]},"}]}`,
		`{"release_id":"a\\","queries":["\\\"","[{"]}`,
		"\t{ \"release_id\" :\r\n\"a\" , \"queries\" : [ {} ,\n{ \"dims\" : [ 0 ] } ] }\n",
		`{"release_id":"a","queries":[{"lo":[1e400]},{"dims":"x"},-0.5e-3,true,false]}`,
		`{"release_id":"\ud800é <>&","queries":[{}]}`,
		"{\"release_id\":\"a\xff\",\"queries\":[{}]}",
		"{\"release_\xffid\":\"a\",\"queries\":[{}]}",
		`{"release_id":"a","queries":[{}]}x`,
		`{"release_id":"a","queries":[{}],}`,
		`{"release_id":"a" "queries":[{}]}`,
		`{"results":[{"estimate":1},{"estimate":2,"cached":true}],"cache_hits":1,"request_id":"x"}`,
		`{"Results":[{"groups":[{"lo":[0],"hi":[1],"estimate":3}],"estimate":0}],"CACHE_HITS":-0}`,
		`{"results":[{"estimate":1}],"cache_hits":1.5}`,
		`{"results":[{"estimate":1}],"cache_hits":"1"}`,
		`{"results":[{"estimate":1}],"cache_hits":99999999999999999999}`,
		`{"results":[null],"cache_hits":null}`,
		`{"results":[{"estimate":1}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		b, ok := SplitBatch(body)
		var ref rawBatch
		refErr := json.Unmarshal(body, &ref)
		if ok != (refErr == nil) {
			t.Fatalf("SplitBatch(%q) ok=%v; json.Unmarshal: %v", body, ok, refErr)
		}
		if ok {
			if b.ReleaseID != ref.ReleaseID || len(b.Queries) != len(ref.Queries) {
				t.Fatalf("SplitBatch(%q) = %q with %d queries; json.Unmarshal: %q with %d", body, b.ReleaseID, len(b.Queries), ref.ReleaseID, len(ref.Queries))
			}
			for i := range b.Queries {
				if !bytes.Equal(b.Queries[i], ref.Queries[i]) {
					t.Fatalf("SplitBatch(%q) query %d = %q; json.Unmarshal: %q", body, i, b.Queries[i], ref.Queries[i])
				}
			}
		}
		if !ok || b.ReleaseID == "" || len(b.Queries) == 0 {
			var req api.BatchQueryRequest
			if json.Unmarshal(body, &req) == nil && req.ReleaseID != "" && len(req.Queries) > 0 {
				t.Fatalf("DecodeBatch accepts %q, which ReadBatch would refuse", body)
			}
		}

		results, hits, ok := SplitBatchAnswer(body, len(body)%8)
		var ans rawAnswer
		want := json.Unmarshal(body, &ans) == nil && bytes.TrimLeft(body, " \t\r\n")[0] == '{'
		for _, r := range ans.Results {
			want = want && r[0] == '{'
		}
		if ok != want {
			t.Fatalf("SplitBatchAnswer(%q) ok=%v, want %v", body, ok, want)
		}
		if ok {
			if hits != ans.CacheHits || len(results) != len(ans.Results) {
				t.Fatalf("SplitBatchAnswer(%q) = %d results, %d hits; json.Unmarshal: %d, %d", body, len(results), hits, len(ans.Results), ans.CacheHits)
			}
			for i := range results {
				if !bytes.Equal(results[i], ans.Results[i]) {
					t.Fatalf("SplitBatchAnswer(%q) result %d = %q; json.Unmarshal: %q", body, i, results[i], ans.Results[i])
				}
			}
		}
	})
}

// TestBatchRelayBytes: a sub-batch body decodes to the release ID and
// queries it was built from, and a spliced answer is byte for byte what
// WriteJSON writes for its decoded form, with or without a request ID
// and whatever characters the IDs hold.
func TestBatchRelayBytes(t *testing.T) {
	queries := [][]byte{[]byte(`{"dims":[0],"lo":[1],"hi":[2]}`), []byte(`{"sa_lo":1,"sa_hi":3,"agg":"sum","group_by":[1]}`), []byte(`null`)}
	results := [][]byte{
		[]byte(`{"estimate":12.5}`),
		[]byte(`{"estimate":0,"cached":true,"groups":[{"lo":[0],"hi":[10],"estimate":1e-7},{"lo":[10],"hi":[20],"estimate":-3}]}`),
		[]byte(`{"estimate":1e+21}`),
	}
	for _, id := range []string{"n1-r-000001", "", "r\"1\\", "<r&1>", "r é\x01\u2028"} {
		var req api.BatchQueryRequest
		if err := json.Unmarshal(BatchBody(id, queries), &req); err != nil {
			t.Fatalf("%q: sub-batch body does not decode: %v", id, err)
		}
		if req.ReleaseID != id || len(req.Queries) != len(queries) {
			t.Fatalf("%q: sub-batch decodes as %q with %d queries", id, req.ReleaseID, len(req.Queries))
		}

		for _, requestID := range []string{"", "0123456789abcdef0123456789abcdef", "id<&>\""} {
			got := httptest.NewRecorder()
			WriteBatchAnswer(got, id, requestID, results, 7)
			var resp api.BatchQueryResponse
			if err := json.Unmarshal(got.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%q/%q: spliced answer does not decode: %v\n%s", id, requestID, err, got.Body)
			}
			want := httptest.NewRecorder()
			WriteJSON(want, http.StatusOK, resp)
			if got.Body.String() != want.Body.String() {
				t.Fatalf("%q/%q: spliced answer\n%s differs from WriteJSON's\n%s", id, requestID, got.Body, want.Body)
			}
			if got.Header().Get("Content-Type") != "application/json" || got.Header().Get("Content-Length") != strconv.Itoa(got.Body.Len()) {
				t.Fatalf("%q/%q: headers %v for a %d-byte body", id, requestID, got.Header(), got.Body.Len())
			}
		}
	}
}
