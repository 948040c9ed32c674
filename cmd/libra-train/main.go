// Command libra-train runs the §6.2 machine-learning study: 5-fold
// stratified cross-validation of the four model families on the main
// dataset, the transfer test on the two unseen buildings, the Gini feature
// importances (Table 3), and the 3-class model LiBRA ships with (§7).
//
// Usage:
//
//	libra-train [-seed N] [-reps N] [-data FILE] [-o FILE] [-fit-only]
//	            [-verify-quant] [-trees N] [-depth N] [-profile-out FILE]
//	            [-profile-bins N] [-metrics-out FILE] [-trace-out FILE]
//	            [-cpuprofile FILE] [-memprofile FILE] [-pprof ADDR]
//
// -data loads the main (training) campaign from a libra-ds v1 (.lds) file
// written by libra-dataset -o, skipping channel-model generation entirely;
// the container's embedded digest is verified on load.
//
// -o writes the trained 3-class model in the versioned libra-model format
// that libra-serve -model consumes. -fit-only skips the study and only
// trains and writes the model — the fast path for producing a serving
// artifact. -trees/-depth size the saved forest (the study always uses the
// paper's 80x12 configuration). -verify-quant compiles the trained forest
// to the quantized serving representation (ml.QuantForest, what libra-serve
// -model-format quant32 deploys) and proves class parity against the float64
// flat arrays on the float32-narrowed test campaign — the same wire-exactness
// gate the shard bench enforces.
//
// -profile-out freezes the training campaign's feature and class
// distributions into a drift reference profile (JSON): equal-frequency bin
// edges and proportions per feature plus the action prior. libra-serve
// -drift-profile and libra-report -profile compare live decision traffic
// against it (DESIGN.md §8).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/experiments"
	"github.com/libra-wlan/libra/internal/ml"
	"github.com/libra-wlan/libra/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("libra-train: ")
	seed := flag.Int64("seed", 42, "suite random seed")
	reps := flag.Int("reps", 10, "cross-validation repetitions (paper: 500)")
	data := flag.String("data", "", "load the main (training) campaign from a libra-ds v1 (.lds) file instead of generating it")
	out := flag.String("o", "", "write the trained 3-class model (libra-model format) to this file")
	fitOnly := flag.Bool("fit-only", false, "skip the CV study; only train and write/verify the model (needs -o or -verify-quant)")
	verifyQuant := flag.Bool("verify-quant", false, "quantize the trained forest and report class parity vs the float64 arrays on the test campaign")
	trees := flag.Int("trees", 80, "forest size of the saved model")
	depth := flag.Int("depth", 12, "maximum tree depth of the saved model")
	profileOut := flag.String("profile-out", "", "write the training-distribution drift reference profile (JSON) to this file")
	profileBins := flag.Int("profile-bins", 10, "equal-frequency bins per feature in the drift profile")
	oc := obs.RegisterCLI(flag.CommandLine)
	flag.Parse()
	if *fitOnly && *out == "" && !*verifyQuant && *profileOut == "" {
		log.Fatal("-fit-only needs -o FILE (or -verify-quant or -profile-out) to have something to do")
	}
	if err := oc.Start(); err != nil {
		log.Fatal(err)
	}

	s := experiments.NewSuite(*seed)
	if *data != "" {
		camp, err := dataset.OpenLDS(*data)
		if err != nil {
			log.Fatal(err)
		}
		s.UseMain(camp)
		log.Printf("training data: %s (%d entries, digest %s)", *data, len(camp.Entries), camp.Digest())
	}
	if !*fitOnly {
		cv, err := experiments.CrossValidation(s, *reps)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(cv)
		tr, err := experiments.TransferAccuracy(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tr)
		t3, err := experiments.Table3(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(t3)
		tc, err := experiments.ThreeClass(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tc)
		cr, err := experiments.ConfusionReport(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(cr)
	}

	// The drift reference freezes the exact distribution the shipped model is
	// fitted on (the 3-class main-campaign view), so serve-side PSI/KS compare
	// like with like.
	if *profileOut != "" {
		camp := s.Main()
		prof, err := ml.ReferenceProfile(camp.Name, camp.ToML(true), *profileBins)
		if err != nil {
			log.Fatal(err)
		}
		if err := prof.SaveFile(*profileOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("drift reference profile (%d features, %d bins) written to %s\n",
			len(prof.Features), *profileBins, *profileOut)
	}

	if *out != "" || *verifyQuant {
		clf, err := trainModel(s, *seed, *trees, *depth)
		if err != nil {
			log.Fatal(err)
		}
		if *verifyQuant {
			if err := verifyQuantParity(clf, *seed); err != nil {
				log.Fatal(err)
			}
		}
		if *out == "" {
			if err := oc.Stop(); err != nil {
				log.Fatal(err)
			}
			return
		}
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := core.SaveClassifier(clf, f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trained 3-class model (%d trees, depth %d) written to %s\n",
			*trees, *depth, *out)
	}
	if err := oc.Stop(); err != nil {
		log.Fatal(err)
	}
}

// trainModel fits the shipped 3-class forest. The default 80x12 shape goes
// through the suite's shared classifier (identical to what the study
// evaluates); custom shapes train directly on the main campaign with the
// same seed derivation.
func trainModel(s *experiments.Suite, seed int64, trees, depth int) (*core.MLClassifier, error) {
	if trees == 80 && depth == 12 {
		return s.Classifier()
	}
	rf := &ml.RandomForest{NumTrees: trees, MaxDepth: depth, Seed: seed + 2}
	if err := rf.Fit(s.Main().ToML(true)); err != nil {
		return nil, err
	}
	return &core.MLClassifier{Model: rf}, nil
}

// verifyQuantParity compiles clf's forest to the quantized serving form and
// demands bit-identical predicted classes on the float32-narrowed test
// campaign — the exactness contract the quant32 serving format ships under.
// Any mismatch is a fatal error: the artifact must not be deployed quantized.
func verifyQuantParity(clf *core.MLClassifier, seed int64) error {
	rf, ok := clf.Model.(*ml.RandomForest)
	if !ok {
		return fmt.Errorf("-verify-quant: model family %s has no quantized form", clf.Name())
	}
	q, err := rf.Quantize()
	if err != nil {
		return err
	}
	camp := dataset.GenerateTest(seed)
	rows := make([][]float64, len(camp.Entries))
	for i := range camp.Entries {
		feats := camp.Entries[i].Features
		x := make([]float64, len(feats))
		for j, v := range feats {
			x[j] = float64(float32(v)) // what the binary wire delivers
		}
		rows[i] = x
	}
	base := rf.PredictBatch(rows, nil)
	got := q.PredictBatch(rows, nil)
	mismatches := 0
	for i := range base {
		if base[i] != got[i] {
			mismatches++
		}
	}
	if mismatches != 0 {
		return fmt.Errorf("-verify-quant: %d of %d rows diverge from the float64 arrays", mismatches, len(base))
	}
	fmt.Printf("quantized forest verified: %d test-campaign rows bit-identical to the float64 arrays (%d nodes, %d trees)\n",
		len(base), q.NumNodes(), q.NumTrees())
	return nil
}
