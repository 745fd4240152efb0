package edge

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"

	"repro/internal/obs"
	"repro/pkg/api"
)

// WriteJSON writes v as the response body with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteErr emits the structured error envelope every route of both roles
// shares. The request ID Wrap staged as a response header is mirrored
// into details so error reports are grep-able against server logs without
// the caller having captured the header. Under Wrap, the error code is
// captured too, so the retained trace carries the failure class.
func WriteErr(w http.ResponseWriter, status int, code string, err error, details map[string]any) {
	NoteErrCode(w, code)
	if id := w.Header().Get(obs.HeaderRequestID); id != "" {
		if details == nil {
			details = make(map[string]any, 1)
		}
		if _, ok := details["request_id"]; !ok {
			details["request_id"] = id
		}
	}
	WriteJSON(w, status, api.Envelope{Error: api.Error{Code: code, Message: err.Error(), Details: details}})
}

// NoteErrCode records code as the response's api error code for the
// retained trace, as WriteErr does, for a handler that relays an error
// envelope another process wrote.
func NoteErrCode(w http.ResponseWriter, code string) {
	if rec, ok := w.(*recorder); ok {
		rec.errCode = code
	}
}

// WriteBodyErr reports a failure to read or decode the request body: 413
// too_large when the body tripped http.MaxBytesReader, 400
// invalid_request otherwise.
func WriteBodyErr(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteErr(w, http.StatusRequestEntityTooLarge, api.CodeTooLarge, err, nil)
		return
	}
	WriteErr(w, http.StatusBadRequest, api.CodeInvalidRequest, err, nil)
}

// maxBodyReserve caps the buffer ReadBody reserves from a declared
// length before any byte arrives: a peer can declare any Content-Length
// without sending it.
const maxBodyReserve = 1 << 20

// ReadBody reads a request or response body to EOF, as io.ReadAll does.
// Its buffer starts at min(size, 1 MiB) bytes, size being the body's
// declared length (ContentLength, -1 when unknown), and doubles as it
// fills, so an honest body of up to 1 MiB costs one allocation and a
// false length reserves at most 1 MiB. The cap on what is read is the
// caller's: request bodies come through http.MaxBytesReader, whose error
// ReadBody returns as it gets it.
func ReadBody(r io.Reader, size int64) ([]byte, error) {
	reserve := int64(512)
	if size > 0 {
		reserve = min(size, maxBodyReserve)
	}
	// One byte past the declared length lets the read that finds EOF land
	// in the buffer instead of growing it.
	buf := make([]byte, 0, reserve+1)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, cap(buf))
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// EvaluateTarget resolves POST /v1/releases/{action} to the release ID
// of its "{id}:evaluate" verb, the only one; the mux wildcard must span a
// whole segment, so the colon is split here. On false the 404 envelope
// has been written.
func EvaluateTarget(w http.ResponseWriter, r *http.Request) (string, bool) {
	action := r.PathValue("action")
	id, verb, ok := strings.Cut(action, ":")
	if !ok || id == "" || verb != "evaluate" {
		WriteErr(w, http.StatusNotFound, api.CodeNotFound,
			fmt.Errorf("no route for POST /v1/releases/%s", action),
			map[string]any{"actions": []string{"{id}:evaluate"}})
		return "", false
	}
	return id, true
}
