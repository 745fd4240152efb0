package edge

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"unicode"
	"unicode/utf8"

	"repro/pkg/api"
)

// DecodeBatch reads a POST /v1/query:batch body of at most limit bytes
// and checks its shape. On false the error envelope has been written.
func DecodeBatch(w http.ResponseWriter, r *http.Request, limit int64) (api.BatchQueryRequest, bool) {
	body, err := ReadBody(http.MaxBytesReader(w, r.Body, limit), r.ContentLength)
	if err != nil {
		WriteBodyErr(w, fmt.Errorf("decoding request: %w", err))
		return api.BatchQueryRequest{}, false
	}
	return decodeBatch(w, body)
}

func decodeBatch(w http.ResponseWriter, body []byte) (api.BatchQueryRequest, bool) {
	var req api.BatchQueryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		WriteBodyErr(w, fmt.Errorf("decoding request: %w", err))
		return req, false
	}
	if req.ReleaseID == "" {
		WriteErr(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Errorf("release_id is required"), nil)
		return req, false
	}
	if len(req.Queries) == 0 {
		WriteErr(w, http.StatusBadRequest, api.CodeInvalidRequest, fmt.Errorf("queries is empty"), nil)
		return req, false
	}
	return req, true
}

// RawBatch is a POST /v1/query:batch body split at element boundaries:
// its release ID, decoded, and each query as the client encoded it.
type RawBatch struct {
	ReleaseID string
	Queries   [][]byte
}

// ReadBatch reads a POST /v1/query:batch body of at most limit bytes
// and splits it with SplitBatch, decoding no query. It refuses what
// DecodeBatch refuses of the envelope, with DecodeBatch's message; a
// query's own type errors are left to whoever decodes it. On false the
// error envelope has been written.
func ReadBatch(w http.ResponseWriter, r *http.Request, limit int64) (RawBatch, bool) {
	body, err := ReadBody(http.MaxBytesReader(w, r.Body, limit), r.ContentLength)
	if err != nil {
		WriteBodyErr(w, fmt.Errorf("decoding request: %w", err))
		return RawBatch{}, false
	}
	b, ok := SplitBatch(body)
	if ok && b.ReleaseID != "" && len(b.Queries) > 0 {
		return b, true
	}
	// json.Unmarshal refuses every body the splitter refuses, and a body
	// the splitter reads with no release ID or no query fails its checks
	// too (FuzzSplitBatch), so DecodeBatch's own decode words the 400.
	decodeBatch(w, body)
	return RawBatch{}, false
}

// SplitBatch splits a batch body as json.Unmarshal reads it into
// {release_id string; queries []json.RawMessage}: it accepts exactly the
// bodies that decode does, and yields the same release ID and the same
// element bytes. Keys match as encoding/json matches them: exactly or
// case-folded, the last duplicate winning and unknown keys skipped; a
// null release_id leaves it as it was, and a null queries empties it.
func SplitBatch(body []byte) (RawBatch, bool) {
	var b RawBatch
	// The split is gathered on the stack, room for 64 queries, and copied
	// once into a slice of its length: counting the elements first would
	// scan their bytes twice.
	var buf [64][]byte
	queries := buf[:0]
	if !json.Valid(body) {
		return b, false
	}
	i := skipSpace(body, 0)
	if body[i] == 'n' {
		return b, true // null decodes as the zero request
	}
	if body[i] != '{' {
		return b, false
	}
	ok := members(body, i, func(key []byte, v int) (int, bool) {
		switch {
		case keyIs(key, "RELEASE_ID"):
			switch body[v] {
			case '"':
				end := skipString(body, v)
				b.ReleaseID = unquote(body[v:end])
				return end, true
			case 'n':
				return v + len("null"), true
			}
			return 0, false
		case keyIs(key, "QUERIES"):
			var end int
			queries, end = array(queries, body, v)
			return end, end > 0
		}
		return skipValue(body, v), true
	})
	b.Queries = append([][]byte(nil), queries...)
	return b, ok
}

// BatchBody is the POST /v1/query:batch body that asks releaseID the
// queries, each an encoded element of a client's batch.
func BatchBody(releaseID string, queries [][]byte) []byte {
	n := len(`{"release_id":"","queries":[]}`) + len(releaseID) + len(queries)
	for _, q := range queries {
		n += len(q)
	}
	body := append(make([]byte, 0, n), `{"release_id":`...)
	body = appendString(body, releaseID)
	body = append(body, `,"queries":`...)
	return append(appendElements(body, queries), '}')
}

// SplitBatchAnswer takes from a node's 200 batch answer its results'
// elements, as the node encoded them, and its cache_hits. It refuses
// anything that is not a JSON object whose results is an array of
// objects and whose cache_hits is an integer. n is the number of results
// the caller asked for, which sizes the split.
func SplitBatchAnswer(body []byte, n int) (results [][]byte, cacheHits int, ok bool) {
	if !json.Valid(body) {
		return nil, 0, false
	}
	i := skipSpace(body, 0)
	if body[i] != '{' {
		return nil, 0, false
	}
	results = make([][]byte, 0, n)
	ok = members(body, i, func(key []byte, v int) (int, bool) {
		switch {
		case keyIs(key, "RESULTS"):
			var end int
			results, end = array(results, body, v)
			for _, r := range results {
				if r[0] != '{' {
					return 0, false
				}
			}
			return end, end > 0
		case keyIs(key, "CACHE_HITS"):
			if body[v] == 'n' {
				return v + len("null"), true
			}
			end := skipValue(body, v)
			n, err := strconv.Atoi(string(body[v:end]))
			cacheHits = n
			return end, err == nil
		}
		return skipValue(body, v), true
	})
	return results, cacheHits, ok
}

// WriteBatchAnswer writes a 200 batch answer whose results are the given
// encoded elements: byte for byte what WriteJSON writes for the
// api.BatchQueryResponse they decode to, plus its Content-Length.
func WriteBatchAnswer(w http.ResponseWriter, releaseID, requestID string, results [][]byte, cacheHits int) {
	n := len(`{"release_id":"","results":[],"cache_hits":,"request_id":""}`+"\n") +
		len(releaseID) + len(requestID) + len(results) + 20
	for _, r := range results {
		n += len(r)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, `{"release_id":`...)
	buf = appendString(buf, releaseID)
	buf = append(buf, `,"results":`...)
	buf = appendElements(buf, results)
	buf = append(buf, `,"cache_hits":`...)
	buf = strconv.AppendInt(buf, int64(cacheHits), 10)
	if requestID != "" {
		buf = append(buf, `,"request_id":`...)
		buf = appendString(buf, requestID)
	}
	buf = append(buf, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}

// appendElements appends the JSON array of the encoded elements.
func appendElements(dst []byte, elems [][]byte) []byte {
	dst = append(dst, '[')
	for i, e := range elems {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, e...)
	}
	return append(dst, ']')
}

// appendString appends s as WriteJSON encodes it. Printable ASCII other
// than the quote and the backslash encodes as itself; anything else goes
// through encoding/json, HTML escaping off as in WriteJSON.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			_ = enc.Encode(s)
			return append(dst, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// The scanners below walk a document json.Valid has accepted, so they
// check no syntax: each takes the index of a token's first byte and
// returns the index just past it.

// members calls fn for each member of the object at b[i] with the key's
// string token and the index of its value; fn returns the index past
// the value, or false to stop the walk, which members then reports.
func members(b []byte, i int, fn func(key []byte, v int) (int, bool)) bool {
	i = skipSpace(b, i+1)
	if b[i] == '}' {
		return true
	}
	for {
		end := skipString(b, i)
		key := b[i:end]
		v := skipSpace(b, skipSpace(b, end)+1) // past the colon
		end, ok := fn(key, v)
		if !ok {
			return false
		}
		i = skipSpace(b, end)
		if b[i] == '}' {
			return true
		}
		i = skipSpace(b, i+1) // past the comma
	}
}

// array reads the value at b[v] as encoding/json reads it into a
// []json.RawMessage holding dst: an array's elements replace dst's and
// null empties it. Any other value is refused with end 0.
func array(dst [][]byte, b []byte, v int) (elems [][]byte, end int) {
	switch b[v] {
	case '[':
		return elements(dst[:0], b, v)
	case 'n':
		return nil, v + len("null")
	}
	return dst, 0
}

// elements appends to dst the bytes of each element of the array at
// b[i] and returns them with the index past the array.
func elements(dst [][]byte, b []byte, i int) ([][]byte, int) {
	i = skipSpace(b, i+1)
	if b[i] == ']' {
		return dst, i + 1
	}
	for {
		end := skipValue(b, i)
		dst = append(dst, b[i:end])
		i = skipSpace(b, end)
		if b[i] == ']' {
			return dst, i + 1
		}
		i = skipSpace(b, i+1) // past the comma
	}
}

func skipValue(b []byte, i int) int {
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		depth := 0
		for ; i < len(b); i++ {
			switch b[i] {
			case '"':
				i = skipString(b, i) - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
		return i
	}
	for i < len(b) && !isSpace(b[i]) && b[i] != ',' && b[i] != '}' && b[i] != ']' {
		i++ // a number or a literal
	}
	return i
}

// skipString skips the string token at b[i]: its closing quote is the
// first one after an even run of backslashes.
func skipString(b []byte, i int) int {
	for i++; ; i++ {
		q := bytes.IndexByte(b[i:], '"')
		if q < 0 {
			return len(b)
		}
		i += q
		slashes := 0
		for j := i - 1; b[j] == '\\'; j-- {
			slashes++
		}
		if slashes%2 == 0 {
			return i + 1
		}
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// unquote decodes a string token; one without escapes or non-ASCII bytes
// is its own content.
func unquote(tok []byte) string {
	for _, c := range tok {
		if c == '\\' || c >= utf8.RuneSelf {
			var s string
			_ = json.Unmarshal(tok, &s)
			return s
		}
	}
	return string(tok[1 : len(tok)-1])
}

// keyIs reports whether the key token names the field whose upper-case
// ASCII name is upper, matched as encoding/json matches a key: after
// unescaping, ASCII letters upper-cased and any other rune folded to the
// least rune of its unicode.SimpleFold orbit.
func keyIs(tok []byte, upper string) bool {
	key := tok[1 : len(tok)-1]
	if bytes.IndexByte(key, '\\') >= 0 {
		key = []byte(unquote(tok))
	}
	j := 0
	for i := 0; i < len(key); j++ {
		r, n := rune(key[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(key[i:])
			for f := unicode.SimpleFold(r); f < r; f = unicode.SimpleFold(f) {
				r = f
			}
		} else if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		if j >= len(upper) || r != rune(upper[j]) {
			return false
		}
		i += n
	}
	return j == len(upper)
}
