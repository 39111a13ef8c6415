package experiments

import "testing"

// TestAblationReliability is the headline acceptance test for the
// reliability layer (DESIGN.md §4g): with a 5% injected transient rate per
// step, in-place retries plus verification re-runs must reject no innocent
// change and commit exactly as many changes as the fault-free run of the same
// seeded workload, at least one verification re-run must have fired (so the
// zero is earned, not vacuous), master must stay green in every cell, and
// median committed-change turnaround must stay within 1.5x of the fault-free
// run.
func TestAblationReliability(t *testing.T) {
	if testing.Short() {
		t.Skip("three full simulation cells; skipped in -short")
	}
	r := AblationReliability(opts())
	checkReport(t, r)

	if fr := r.Metrics["false_rejections_retry"]; fr != 0 {
		t.Errorf("false rejections with retry = %v, want 0", fr)
	}
	if r.Metrics["committed_retry"] != r.Metrics["committed_fault_free"] {
		t.Errorf("retry cell committed %v, fault-free cell %v; want equal",
			r.Metrics["committed_retry"], r.Metrics["committed_fault_free"])
	}
	if r.Metrics["flaky_verifications"] == 0 {
		t.Error("no verification re-runs recorded; zero false rejections proves nothing")
	}
	if gv := r.Metrics["green_violations"]; gv != 0 {
		t.Errorf("green violations = %v, master must stay green in every cell", gv)
	}
	if ratio := r.Metrics["p50_ratio"]; ratio > 1.5 {
		t.Errorf("P50 turnaround with faults+retry is %.2fx fault-free, want <= 1.5x", ratio)
	}
	if r.Metrics["step_retries"] == 0 {
		t.Error("no in-place step retries recorded; the retry path did not engage")
	}
}

// TestAblationReliabilityDeterministic re-runs the experiment with the same
// seed and requires bit-identical metrics: the injected fault schedule is a
// pure function of the seed and build identities.
func TestAblationReliabilityDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("six full simulation cells; skipped in -short")
	}
	a := AblationReliability(Options{Seed: 7, Quick: true})
	b := AblationReliability(Options{Seed: 7, Quick: true})
	for k, v := range a.Metrics {
		if b.Metrics[k] != v {
			t.Errorf("metric %s differs across identical-seed runs: %v vs %v", k, v, b.Metrics[k])
		}
	}
}
