package cluster

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the committed golden bytes:
//
//	go test ./internal/cluster/ -run TestMembershipGoldenBytes -update
var update = flag.Bool("update", false, "rewrite golden byte files")

// TestMembershipGoldenBytes pins the membership-schedule format byte for
// byte: a fixed plan with joins, leaves, mixed events and repeated instants
// must encode to the committed blob, which must decode and re-encode
// unchanged.
func TestMembershipGoldenBytes(t *testing.T) {
	mp := &MembershipPlan{Universe: 7, Initial: 3, Events: []MemberEvent{
		{TimeSec: 0.5, Join: []int{3, 4}},
		{TimeSec: 2, Leave: []int{0, 4}},
		{TimeSec: 2, Join: []int{0, 6}, Leave: []int{1}},
		{TimeSec: 17.25, Join: []int{5}, Leave: []int{2, 3}},
	}}
	path := filepath.Join("testdata", "membership.golden")
	got := EncodeMembershipPlan(mp)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeMembershipPlan = %d bytes, golden %d bytes: the membership format changed", len(got), len(want))
	}
	back, err := DecodeMembershipPlan(want)
	if err != nil {
		t.Fatalf("golden blob does not decode: %v", err)
	}
	if !bytes.Equal(EncodeMembershipPlan(back), want) {
		t.Fatal("golden blob does not re-encode to itself")
	}
}
