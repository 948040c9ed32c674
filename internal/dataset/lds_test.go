package dataset

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// ldsTestCampaign generates a small fixed-seed campaign once per test run.
func ldsTestCampaign(t *testing.T) *Campaign {
	t.Helper()
	return GenerateTestWorkers(43, 1)
}

// TestLDSRoundTrip pins the container contract: write → read → write must
// reproduce the campaign exactly (entries, sites, name) and the second write
// must be byte-identical to the first.
func TestLDSRoundTrip(t *testing.T) {
	c := ldsTestCampaign(t)
	var first bytes.Buffer
	if err := c.WriteLDS(&first, 64, 1); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLDS(first.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != c.Name {
		t.Fatalf("name %q, want %q", got.Name, c.Name)
	}
	if !reflect.DeepEqual(got.Sites, c.Sites) {
		t.Fatal("sites did not round-trip")
	}
	if len(got.Entries) != len(c.Entries) {
		t.Fatalf("%d entries, want %d", len(got.Entries), len(c.Entries))
	}
	for i := range c.Entries {
		if *got.Entries[i] != *c.Entries[i] {
			t.Fatalf("entry %d did not round-trip:\n got %+v\nwant %+v", i, *got.Entries[i], *c.Entries[i])
		}
	}
	if got.Digest() != c.Digest() {
		t.Fatal("digest changed across the round trip")
	}
	var second bytes.Buffer
	if err := got.WriteLDS(&second, 64, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("write → read → write is not byte-identical")
	}
}

// TestLDSWorkerIndependence pins the parallel writer contract: the bytes do
// not depend on the encode worker count.
func TestLDSWorkerIndependence(t *testing.T) {
	c := ldsTestCampaign(t)
	var w1, w8 bytes.Buffer
	if err := c.WriteLDS(&w1, 32, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteLDS(&w8, 32, 8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w8.Bytes()) {
		t.Fatal("writer output depends on worker count")
	}
}

// TestLDSOpenFile exercises the mmap (or fallback) file path.
func TestLDSOpenFile(t *testing.T) {
	c := ldsTestCampaign(t)
	path := filepath.Join(t.TempDir(), "campaign.lds")
	var buf bytes.Buffer
	if err := c.WriteLDS(&buf, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := writeTestFile(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, err := OpenLDS(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != c.Digest() {
		t.Fatal("digest mismatch through file path")
	}
}

// TestLDSRejectsTruncation cuts the image at several points — inside the
// header, inside a chunk payload, inside the footer, inside the trailer —
// and requires a corruption error for each.
func TestLDSRejectsTruncation(t *testing.T) {
	c := ldsTestCampaign(t)
	var buf bytes.Buffer
	if err := c.WriteLDS(&buf, 64, 1); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	cuts := []int{3, 12, 40, len(img) / 2, len(img) - 40, len(img) - 9, len(img) - 1}
	for _, cut := range cuts {
		if cut <= 0 || cut >= len(img) {
			continue
		}
		if _, err := ReadLDS(img[:cut]); !errors.Is(err, ErrLDSCorrupt) {
			t.Fatalf("truncation at %d of %d: got %v, want ErrLDSCorrupt", cut, len(img), err)
		}
	}
}

// TestLDSRejectsCorruption flips a byte inside a chunk payload and inside the
// footer digest region; both must fail closed with ErrLDSCorrupt.
func TestLDSRejectsCorruption(t *testing.T) {
	c := ldsTestCampaign(t)
	var buf bytes.Buffer
	if err := c.WriteLDS(&buf, 64, 1); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	// A float byte deep inside the first chunk payload: the per-chunk
	// SHA-256 must catch it.
	payload := make([]byte, len(img))
	copy(payload, img)
	payload[24+16+200] ^= 0x40
	if _, err := ReadLDS(payload); !errors.Is(err, ErrLDSCorrupt) {
		t.Fatalf("payload corruption: got %v, want ErrLDSCorrupt", err)
	}

	// A byte of the stored chunk digest in the footer: the recomputed sum
	// cannot match.
	footer := make([]byte, len(img))
	copy(footer, img)
	footer[len(footer)-60] ^= 0x01
	if _, err := ReadLDS(footer); !errors.Is(err, ErrLDSCorrupt) {
		t.Fatalf("footer corruption: got %v, want ErrLDSCorrupt", err)
	}

	// The trailer magic itself.
	trail := make([]byte, len(img))
	copy(trail, img)
	trail[len(trail)-1] = 'X'
	if _, err := ReadLDS(trail); !errors.Is(err, ErrLDSCorrupt) {
		t.Fatalf("trailer corruption: got %v, want ErrLDSCorrupt", err)
	}
}

// TestLDSRejectsHugeChunkCount is a bare 24-byte header claiming 2^32-1
// chunks: the reader must refuse the count before allocating for it.
func TestLDSRejectsHugeChunkCount(t *testing.T) {
	hdr := append([]byte("LDS1"), 1, 0, 0, 0) // version 1
	hdr = append(hdr, 0, 16, 0, 0)            // chunkRows 4096
	hdr = append(hdr, 0xFF, 0xFF, 0xFF, 0xFF)
	hdr = append(hdr, 0, 0, 0, 0, 0, 0, 0, 0) // rowCount 0
	if _, err := ReadLDS(hdr); !errors.Is(err, ErrLDSCorrupt) {
		t.Fatalf("got %v, want ErrLDSCorrupt", err)
	}
}

// TestLDSEmptyCampaign round-trips a campaign with no entries.
func TestLDSEmptyCampaign(t *testing.T) {
	c := &Campaign{Dataset: Dataset{Name: "empty"}}
	var buf bytes.Buffer
	if err := c.WriteLDS(&buf, 0, 4); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLDS(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "empty" || len(got.Entries) != 0 {
		t.Fatalf("got %q with %d entries", got.Name, len(got.Entries))
	}
}

// writeTestFile writes bytes to path (0644).
func writeTestFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}
