package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// errorBody is the envelope for structured errors:
// {"error":{"code":"bad_topology","message":"..."}}.
type errorBody struct {
	Error *APIError `json:"error"`
}

// encodeBody renders v as one response body: its JSON and a newline.
// Every JSON body the server writes — per request or cached on a store
// entry — comes from here, so the two cannot differ by a byte.
func encodeBody(v interface{}) ([]byte, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	buf, err := encodeBody(v)
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"encoding failed"}}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, status, buf)
}

// writeBody writes an encoded body. Its length is known before the first
// byte, so it goes out under Content-Length instead of chunked.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeAPIError(w http.ResponseWriter, e *APIError) {
	writeJSON(w, e.Status, errorBody{Error: e})
}
