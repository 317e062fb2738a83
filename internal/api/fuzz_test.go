package api

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// FuzzJobSpec posts arbitrary bytes to POST /v1/jobs on a server whose jobs
// run a stub executor. The answer must be 202, 400, 413 or 429 — never a
// 500 or a panic. A 202 must come from a body holding exactly one JSON
// object, and its view must carry a spec that survives re-encoding:
// decoding its JSON again gives an equal JobSpec.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"type":"plan","network":"ring4"}`,
		`{"type":"restore","network":"cernet","cut_fibers":["cfib010"],"seed":1,"deadline_ms":500}`,
		`{"type":"sweep","network":"ring6","scale":1.5,"scheme":"radwan","k":3,"exact":true}`,
		`{"type":"drill","network":"ring4","cut_fibers":[]}`,
		`{"type":"restore","network":"ring4","cut_fiber":["rfib00"]}`,
		`{"type":"plan","network":"ring4"} trailing`,
		`{"k":1e400}`,
		`{"type":"\xff\xfe"}`,
		`{"type":"plan"}{"type":"sweep"}`,
		`null`,
		`[]`,
		`{bad json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s := New(Options{QueueDepth: 8, Workers: 1, executor: func(context.Context, *Job) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	}})
	ts := httptest.NewServer(s.Handler())
	f.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			return
		case http.StatusAccepted:
		default:
			t.Fatalf("POST /v1/jobs %q: status %d: %s", body, resp.StatusCode, reply)
		}
		if trimmed := bytes.TrimLeft(body, " \t\r\n"); !json.Valid(body) || trimmed[0] != '{' {
			t.Fatalf("POST /v1/jobs %q: 202 for a body that is not exactly one JSON object", body)
		}
		var v JobView
		if err := json.Unmarshal(reply, &v); err != nil {
			t.Fatalf("202 reply %s does not decode: %v", reply, err)
		}
		if v.ID == "" {
			t.Fatalf("202 reply %s has no job ID", reply)
		}
		again, err := json.Marshal(v.Spec)
		if err != nil {
			t.Fatalf("spec %+v does not re-encode: %v", v.Spec, err)
		}
		var spec JobSpec
		if err := json.Unmarshal(again, &spec); err != nil {
			t.Fatalf("re-encoded spec %s does not decode: %v", again, err)
		}
		if !reflect.DeepEqual(spec, v.Spec) {
			t.Fatalf("spec changed across re-encoding:\nview:  %+v\nagain: %+v (%s)", v.Spec, spec, again)
		}
	})
}
