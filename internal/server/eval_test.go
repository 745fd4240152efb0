package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/anon"
	"repro/pkg/api"
	"repro/pkg/client"
)

// evaluateVerdict drives one release through create → ready → evaluate →
// done and returns the terminal evaluation.
func evaluateVerdict(t *testing.T, c *client.Client, spec client.CreateSpec, req api.EvaluateRequest) api.Evaluation {
	t.Helper()
	ctx := context.Background()
	rel, err := c.CreateRelease(ctx, spec)
	if err != nil {
		t.Fatalf("create %s: %v", spec.Method, err)
	}
	if _, err := c.WaitReady(ctx, rel.ID, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Evaluate(ctx, rel.ID, req); err != nil {
		t.Fatalf("evaluate %s: %v", rel.ID, err)
	}
	ev, err := c.WaitEvaluated(ctx, rel.ID, 0)
	if err != nil {
		t.Fatalf("evaluation of %s: %v (error: %s)", rel.ID, err, ev.Error)
	}
	return ev
}

// TestEvaluateAllKinds runs the full attack/utility job against one
// release of every registered method and checks the per-kind verdict
// shape: generalized and ℓ-diverse releases carry privacy and attack
// blocks, baseline anatomy and perturbation record why attacks are
// skipped, and utility is measured for all of them.
func TestEvaluateAllKinds(t *testing.T) {
	e := newEnv(t)
	c := client.New(e.ts.URL)
	csv, _ := censusCSV(t, 1200, 17, 3)
	req := api.EvaluateRequest{CSV: csv, Queries: 40, Seed: 3}

	cases := []struct {
		spec    client.CreateSpec
		attacks bool
	}{
		{client.CreateSpec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(7)), QI: 3, CSV: csv}, true},
		{client.CreateSpec{Method: anon.MethodSABRE, Params: anon.NewSABREParams(anon.SABRET(0.3), anon.SABRESeed(7)), QI: 3, CSV: csv}, true},
		{client.CreateSpec{Method: anon.MethodAnatomy, Params: anon.NewAnatomyParams(anon.AnatomyL(2), anon.AnatomySeed(7)), QI: 3, CSV: csv}, true},
		{client.CreateSpec{Method: anon.MethodAnatomy, Params: anon.NewAnatomyParams(anon.AnatomySeed(7)), QI: 3, CSV: csv}, false},
		{client.CreateSpec{Method: anon.MethodPerturb, Params: anon.NewPerturbParams(anon.PerturbBeta(2), anon.PerturbSeed(7)), QI: 3, CSV: csv}, false},
	}
	for _, tc := range cases {
		ev := evaluateVerdict(t, c, tc.spec, req)
		v := ev.Verdict
		if v == nil {
			t.Fatalf("%s: done evaluation without verdict", tc.spec.Method)
		}
		if v.Method != tc.spec.Method || v.Rows != 1200 || v.Seed != 3 {
			t.Errorf("%s: verdict identity = (%s, %d rows, seed %d)", tc.spec.Method, v.Method, v.Rows, v.Seed)
		}
		if tc.attacks {
			if v.Privacy == nil || v.Attacks == nil || v.AttacksSkipped != "" {
				t.Fatalf("%s: expected attack suite, got privacy=%v attacks=%v skipped=%q", tc.spec.Method, v.Privacy, v.Attacks, v.AttacksSkipped)
			}
			if v.Attacks.Baseline <= 0 || v.Attacks.Baseline > 1 {
				t.Errorf("%s: baseline %v out of range", tc.spec.Method, v.Attacks.Baseline)
			}
			if v.Attacks.NaiveBayes < 0 || v.Attacks.NaiveBayes > 1 || v.Attacks.DeFinetti < 0 || v.Attacks.DeFinetti > 1 {
				t.Errorf("%s: attack accuracies out of range: %+v", tc.spec.Method, v.Attacks)
			}
			if v.Privacy.NumECs <= 0 || v.Privacy.MinL < 1 {
				t.Errorf("%s: privacy block %+v", tc.spec.Method, v.Privacy)
			}
		} else if v.Privacy != nil || v.Attacks != nil || v.AttacksSkipped == "" {
			t.Fatalf("%s: expected skipped attacks, got privacy=%v attacks=%v skipped=%q", tc.spec.Method, v.Privacy, v.Attacks, v.AttacksSkipped)
		}
		if v.Utility.CountQueries == 0 || v.Utility.CountMedianRelErr < 0 {
			t.Errorf("%s: utility block %+v", tc.spec.Method, v.Utility)
		}
	}
}

// TestEvaluateRepeatability: identical jobs produce byte-identical
// verdicts — the contract the sidecar checksum and the CI curve gate
// rest on. Re-evaluation after a terminal job is allowed and replaces it.
func TestEvaluateRepeatability(t *testing.T) {
	e := newEnv(t)
	c := client.New(e.ts.URL)
	ctx := context.Background()
	csv, _ := censusCSV(t, 1000, 29, 3)
	spec := client.CreateSpec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(7)), QI: 3, CSV: csv}
	req := api.EvaluateRequest{CSV: csv, Queries: 30, Seed: 11}

	first := evaluateVerdict(t, c, spec, req)
	rel2, err := c.CreateRelease(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitReady(ctx, rel2.ID, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Evaluate(ctx, rel2.ID, req); err != nil {
		t.Fatal(err)
	}
	second, err := c.WaitEvaluated(ctx, rel2.ID, 0)
	if err != nil {
		t.Fatalf("%v (error: %s)", err, second.Error)
	}
	b1, _ := json.Marshal(first.Verdict)
	b2, _ := json.Marshal(second.Verdict)
	if string(b1) != string(b2) {
		t.Fatalf("identical jobs diverged:\n%s\n%s", b1, b2)
	}

	// Re-evaluating the same release with a different seed replaces the
	// terminal job rather than conflicting.
	req2 := req
	req2.Seed = 12
	if _, err := c.Evaluate(ctx, rel2.ID, req2); err != nil {
		t.Fatalf("re-evaluate: %v", err)
	}
	redo, err := c.WaitEvaluated(ctx, rel2.ID, 0)
	if err != nil {
		t.Fatalf("%v (error: %s)", err, redo.Error)
	}
	if redo.Verdict.Seed != 12 {
		t.Fatalf("re-evaluation kept seed %d", redo.Verdict.Seed)
	}
}

// TestEvaluateRejectsWrongUpload: the job authenticates the re-upload by
// re-running the recorded spec and comparing against the served
// publication; different microdata must fail, not silently skew the
// verdict.
func TestEvaluateRejectsWrongUpload(t *testing.T) {
	e := newEnv(t)
	c := client.New(e.ts.URL)
	ctx := context.Background()
	csv, _ := censusCSV(t, 900, 17, 3)
	wrongCSV, _ := censusCSV(t, 900, 18, 3)
	spec := client.CreateSpec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(7)), QI: 3, CSV: csv}
	rel, err := c.CreateRelease(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitReady(ctx, rel.ID, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Evaluate(ctx, rel.ID, api.EvaluateRequest{CSV: wrongCSV, Queries: 10}); err != nil {
		t.Fatal(err)
	}
	ev, err := c.WaitEvaluated(ctx, rel.ID, 0)
	if !client.IsEvalFailed(err) {
		t.Fatalf("wrong upload: err %v, status %s", err, ev.Status)
	}
	if !strings.Contains(ev.Error, "does not reproduce") {
		t.Fatalf("failure does not name the cause: %q", ev.Error)
	}
}

// TestEvaluateValidation covers the submit path's error mapping.
func TestEvaluateValidation(t *testing.T) {
	e := newEnv(t)
	csv, _ := censusCSV(t, 500, 17, 3)

	resp, data := e.post(t, "/v1/releases/nope:evaluate", api.EvaluateRequest{CSV: csv})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown release: %d: %s", resp.StatusCode, data)
	}
	resp, data = e.post(t, "/v1/releases/x:unknownverb", api.EvaluateRequest{CSV: csv})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown verb: %d: %s", resp.StatusCode, data)
	}

	resp, data = e.post(t, "/v1/releases", createReq("burel", `{"beta": 4, "seed": 7}`, csv, 3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: %d: %s", resp.StatusCode, data)
	}
	var rel api.Release
	if err := json.Unmarshal(data, &rel); err != nil {
		t.Fatal(err)
	}
	e.pollReady(t, rel.ID)

	resp, data = e.post(t, "/v1/releases/"+rel.ID+":evaluate", api.EvaluateRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty csv: %d: %s", resp.StatusCode, data)
	}
	resp, data = e.post(t, "/v1/releases/"+rel.ID+":evaluate", api.EvaluateRequest{CSV: csv, Theta: 2})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad theta: %d: %s", resp.StatusCode, data)
	}
	resp, data = e.get(t, "/v1/releases/"+rel.ID+"/evaluation")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evaluation before submit: %d: %s", resp.StatusCode, data)
	}
}

// TestEvaluationSurvivesRestart is the acceptance-criteria test: submit a
// release over HTTP, evaluate it, restart the node, and require GET
// .../evaluation to return the identical persisted verdict with no
// re-run — proven by the recovered timing metadata and the eval recovery
// gauge on /metrics.
func TestEvaluationSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	e := startDurable(t, dir)
	c := client.New(e.ts.URL)
	csv, _ := censusCSV(t, 1000, 17, 3)
	spec := client.CreateSpec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(7)), QI: 3, CSV: csv}

	before := evaluateVerdict(t, c, spec, api.EvaluateRequest{CSV: csv, Queries: 30, Seed: 5})
	if !before.Persisted {
		t.Fatalf("durable store produced unpersisted evaluation: %+v", before)
	}
	e.stop()

	e2 := startDurable(t, dir)
	defer e2.stop()
	c2 := client.New(e2.ts.URL)
	after, err := c2.GetEvaluation(ctx, before.ReleaseID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Status != api.EvalStatusDone || !after.Persisted {
		t.Fatalf("recovered evaluation: status %s persisted %v (error %q)", after.Status, after.Persisted, after.Error)
	}
	// The whole state round-trips: identical verdict AND identical job
	// timing — a re-run could fake the former but not the latter.
	ab, _ := json.Marshal(after)
	bb, _ := json.Marshal(before)
	if string(ab) != string(bb) {
		t.Fatalf("evaluation changed across restart:\nbefore %s\nafter  %s", bb, ab)
	}
	resp, metrics := httpGet(t, e2.ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if !strings.Contains(string(metrics), `repro_eval_recovered{outcome="done"} 1`) {
		t.Fatalf("metrics missing eval recovery gauge:\n%s", metrics)
	}
}

// TestCorruptSidecarFailsEvaluationOnly: a flipped byte in the verdict
// sidecar demotes the evaluation to failed on restart — with the decode
// error preserved — while the release itself stays fully servable, and a
// fresh evaluation can replace the verdict.
func TestCorruptSidecarFailsEvaluationOnly(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	e := startDurable(t, dir)
	c := client.New(e.ts.URL)
	csv, _ := censusCSV(t, 800, 17, 3)
	spec := client.CreateSpec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(7)), QI: 3, CSV: csv}
	ev := evaluateVerdict(t, c, spec, api.EvaluateRequest{CSV: csv, Queries: 20})
	e.stop()

	path := filepath.Join(dir, ev.ReleaseID+".eval")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := startDurable(t, dir)
	defer e2.stop()
	c2 := client.New(e2.ts.URL)
	after, err := c2.GetEvaluation(ctx, ev.ReleaseID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Status != api.EvalStatusFailed || !strings.Contains(after.Error, "sidecar unrecoverable") {
		t.Fatalf("corrupt sidecar: status %s error %q", after.Status, after.Error)
	}
	// The eval log still names the corrupt sidecar: it is kept for
	// forensics, not swept as an orphan.
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("referenced corrupt sidecar swept: %v", err)
	}
	// The release is untouched: still ready, still answering queries.
	rel, err := c2.GetRelease(ctx, ev.ReleaseID)
	if err != nil || rel.Status != api.StatusReady {
		t.Fatalf("release after sidecar corruption: %v status %s", err, rel.Status)
	}
	if _, err := c2.Query(ctx, ev.ReleaseID, api.Query{}); err != nil {
		t.Fatalf("query after sidecar corruption: %v", err)
	}
	// And the failed evaluation is replaceable.
	if _, err := c2.Evaluate(ctx, ev.ReleaseID, api.EvaluateRequest{CSV: csv, Queries: 20}); err != nil {
		t.Fatalf("re-evaluate after corruption: %v", err)
	}
	redo, err := c2.WaitEvaluated(ctx, ev.ReleaseID, 0)
	if err != nil {
		t.Fatalf("%v (error: %s)", err, redo.Error)
	}
	if !redo.Persisted {
		t.Fatal("replacement verdict not persisted")
	}
}

func httpGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}
