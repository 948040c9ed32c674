package ml

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Model persistence. LiBRA's deployment story (§7) is offline training by
// the vendor followed by shipping the fitted model in firmware; this file
// provides the serialization for that hand-off: a fitted random forest
// round-trips through a versioned JSON container.

// forestFormatVersion guards the serialization schema.
const forestFormatVersion = 1

// nodeJSON flattens a tree into an array of nodes; children reference
// indices (-1 for none).
type nodeJSON struct {
	Leaf      bool    `json:"leaf"`
	Class     int     `json:"class,omitempty"`
	Feature   int     `json:"feature,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Left      int     `json:"left"`
	Right     int     `json:"right"`
}

// treeJSON is one serialized tree.
type treeJSON struct {
	Nodes []nodeJSON `json:"nodes"`
}

// forestJSON is the on-disk container.
type forestJSON struct {
	Version    int        `json:"version"`
	NumClasses int        `json:"num_classes"`
	Importance []float64  `json:"importance"`
	Trees      []treeJSON `json:"trees"`
}

// flatten serializes a tree into nodes (preorder).
func flatten(n *treeNode, out *[]nodeJSON) int {
	idx := len(*out)
	*out = append(*out, nodeJSON{Left: -1, Right: -1})
	if n.isLeaf {
		(*out)[idx].Leaf = true
		(*out)[idx].Class = n.class
		return idx
	}
	(*out)[idx].Feature = n.feature
	(*out)[idx].Threshold = n.threshold
	l := flatten(n.left, out)
	r := flatten(n.right, out)
	(*out)[idx].Left = l
	(*out)[idx].Right = r
	return idx
}

// unflatten rebuilds the subtree rooted at nodes[idx]. It fails closed on
// anything a fitted forest cannot contain: a node reached twice (a cycle or
// a shared subtree), a leaf class outside [0, numClasses) or a split
// feature outside [0, numFeatures). seen marks the nodes already placed.
func unflatten(nodes []nodeJSON, idx int, seen []bool, numClasses, numFeatures int) (*treeNode, error) {
	if idx < 0 || idx >= len(nodes) {
		return nil, fmt.Errorf("ml: node index %d out of range", idx)
	}
	if seen[idx] {
		return nil, fmt.Errorf("ml: node %d reached twice", idx)
	}
	seen[idx] = true
	n := nodes[idx]
	if n.Leaf {
		if n.Class < 0 || n.Class >= numClasses {
			return nil, fmt.Errorf("ml: node %d: class %d outside [0, %d)", idx, n.Class, numClasses)
		}
		return &treeNode{isLeaf: true, class: n.Class}, nil
	}
	if n.Feature < 0 || n.Feature >= numFeatures {
		return nil, fmt.Errorf("ml: node %d: feature %d outside [0, %d)", idx, n.Feature, numFeatures)
	}
	left, err := unflatten(nodes, n.Left, seen, numClasses, numFeatures)
	if err != nil {
		return nil, err
	}
	right, err := unflatten(nodes, n.Right, seen, numClasses, numFeatures)
	if err != nil {
		return nil, err
	}
	return &treeNode{feature: n.Feature, threshold: n.Threshold, left: left, right: right}, nil
}

// WriteJSON serializes a fitted forest.
func (f *RandomForest) WriteJSON(w io.Writer) error {
	if len(f.trees) == 0 {
		return ErrNotFitted
	}
	fj := forestJSON{
		Version:    forestFormatVersion,
		NumClasses: f.numClasses,
		Importance: f.importance,
	}
	for _, t := range f.trees {
		var nodes []nodeJSON
		flatten(t.root, &nodes)
		fj.Trees = append(fj.Trees, treeJSON{Nodes: nodes})
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(fj); err != nil {
		return fmt.Errorf("ml: encoding forest: %w", err)
	}
	return bw.Flush()
}

// ReadForestJSON deserializes a forest written by WriteJSON. The result
// predicts identically to the original; it cannot be re-fitted with the
// original hyperparameters (they are not stored). Malformed trees (see
// unflatten) are rejected with an error before anything is compiled.
func ReadForestJSON(r io.Reader) (*RandomForest, error) {
	var fj forestJSON
	if err := json.NewDecoder(bufio.NewReader(r)).Decode(&fj); err != nil {
		return nil, fmt.Errorf("ml: decoding forest: %w", err)
	}
	if fj.Version != forestFormatVersion {
		return nil, fmt.Errorf("ml: unsupported forest version %d", fj.Version)
	}
	if fj.NumClasses < 2 {
		return nil, fmt.Errorf("ml: forest with %d classes", fj.NumClasses)
	}
	f := &RandomForest{numClasses: fj.NumClasses, importance: fj.Importance}
	for i, tj := range fj.Trees {
		if len(tj.Nodes) == 0 {
			return nil, fmt.Errorf("ml: tree %d is empty", i)
		}
		root, err := unflatten(tj.Nodes, 0, make([]bool, len(tj.Nodes)), fj.NumClasses, len(fj.Importance))
		if err != nil {
			return nil, fmt.Errorf("ml: tree %d: %w", i, err)
		}
		// Compile for inference so a loaded forest predicts as fast as a
		// freshly fitted one.
		f.trees = append(f.trees, &DecisionTree{root: root, flat: compileTree(root)})
	}
	if len(f.trees) == 0 {
		return nil, fmt.Errorf("ml: forest has no trees")
	}
	return f, nil
}
