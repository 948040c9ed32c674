package ml

import (
	"bytes"
	"strings"
	"testing"
)

func TestForestRoundTrip(t *testing.T) {
	d := threeClassData(240, 31)
	rf := &RandomForest{NumTrees: 12, MaxDepth: 6, Seed: 1}
	if err := rf.Fit(d); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rf.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadForestJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical predictions on training data and on a probe grid.
	for i := range d.X {
		if rf.Predict(d.X[i]) != got.Predict(d.X[i]) {
			t.Fatalf("prediction diverged on row %d", i)
		}
	}
	for x := -2.0; x < 8; x += 0.7 {
		for y := -2.0; y < 8; y += 0.7 {
			p := []float64{x, y}
			if rf.Predict(p) != got.Predict(p) {
				t.Fatalf("prediction diverged at (%v,%v)", x, y)
			}
		}
	}
	// Importances preserved.
	a, b := rf.GiniImportance(), got.GiniImportance()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("importances changed")
		}
	}
}

func TestWriteUnfitted(t *testing.T) {
	var buf bytes.Buffer
	if err := (&RandomForest{}).WriteJSON(&buf); err != ErrNotFitted {
		t.Errorf("err = %v", err)
	}
}

func TestReadForestRejects(t *testing.T) {
	cases := []string{
		"not json",
		`{"version":9}`,
		`{"version":1,"num_classes":1,"trees":[]}`,
		`{"version":1,"num_classes":2,"trees":[]}`,
		`{"version":1,"num_classes":2,"trees":[{"nodes":[]}]}`,
		`{"version":1,"num_classes":2,"trees":[{"nodes":[{"leaf":false,"left":0,"right":0}]}]}`,
		`{"version":1,"num_classes":2,"trees":[{"nodes":[{"leaf":false,"left":5,"right":6}]}]}`,
	}
	for _, c := range cases {
		if _, err := ReadForestJSON(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

// readForestErr decodes one hand-written 3-class, 2-feature forest whose
// single tree is nodes, and returns the loader's error.
func readForestErr(t *testing.T, nodes string) error {
	t.Helper()
	_, err := ReadForestJSON(strings.NewReader(
		`{"version":1,"num_classes":3,"importance":[0.5,0.5],"trees":[{"nodes":[` + nodes + `]}]}`))
	return err
}

func TestReadForestAcceptsWellFormed(t *testing.T) {
	if err := readForestErr(t, `{"feature":1,"threshold":0.5,"left":1,"right":2},
		{"leaf":true,"class":0,"left":-1,"right":-1},
		{"leaf":true,"class":2,"left":-1,"right":-1}`); err != nil {
		t.Fatal(err)
	}
}

// TestReadForestRejectsCycle: the 2-node cycle 0→1→0 used to recurse until
// the stack overflowed; a subtree shared by both children of the root (which
// no fitted tree contains) blows up exponentially the same way.
func TestReadForestRejectsCycle(t *testing.T) {
	for _, nodes := range []string{
		`{"feature":0,"left":1,"right":1},{"feature":0,"left":0,"right":0}`,
		`{"feature":0,"left":1,"right":1},{"leaf":true,"class":1,"left":-1,"right":-1}`,
	} {
		if err := readForestErr(t, nodes); err == nil || !strings.Contains(err.Error(), "reached twice") {
			t.Fatalf("%s: got %v, want a reached-twice error", nodes, err)
		}
	}
}

// TestReadForestRejectsClassOutOfRange: a leaf predicting class 99 in a
// 3-class forest used to load and predict 99.
func TestReadForestRejectsClassOutOfRange(t *testing.T) {
	for _, class := range []string{"99", "3", "-1"} {
		err := readForestErr(t, `{"feature":0,"left":1,"right":2},
			{"leaf":true,"class":`+class+`,"left":-1,"right":-1},
			{"leaf":true,"class":0,"left":-1,"right":-1}`)
		if err == nil || !strings.Contains(err.Error(), "class") {
			t.Fatalf("class %s: got %v, want a class-range error", class, err)
		}
	}
}

// TestReadForestRejectsFeatureOutOfRange: a split on feature 7 of a
// 2-feature forest used to load and index past the request vector.
func TestReadForestRejectsFeatureOutOfRange(t *testing.T) {
	for _, feature := range []string{"7", "2", "-1"} {
		err := readForestErr(t, `{"feature":`+feature+`,"left":1,"right":2},
			{"leaf":true,"class":0,"left":-1,"right":-1},
			{"leaf":true,"class":1,"left":-1,"right":-1}`)
		if err == nil || !strings.Contains(err.Error(), "feature") {
			t.Fatalf("feature %s: got %v, want a feature-range error", feature, err)
		}
	}
}
