package cluster

import (
	"net/http"
	"testing"
)

func testMembership(t *testing.T, ids ...string) *Membership {
	t.Helper()
	nodes := make([]Node, len(ids))
	for i, id := range ids {
		nodes[i] = Node{ID: id, URL: "http://unreachable.invalid/" + id}
	}
	m, err := newMembership(nodes, http.DefaultClient, "")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPlacementDeterministicOwnerFirst: the ranking is stable across
// calls (and, by FNV, across processes), anchors the owner derived from
// the ID prefix, and spreads releases over the membership.
func TestPlacementDeterministicOwnerFirst(t *testing.T) {
	m := testMembership(t, "n1", "n2", "n3", "n4", "n5")
	ids := []string{"n1-r-000001", "n2-r-000001", "n3-r-000917", "n5-r-000002", "foreign-r-000001", "r-000004"}
	for _, id := range ids {
		a := m.placement(id)
		b := m.placement(id)
		if len(a) != 5 {
			t.Fatalf("%s: ranking of %d nodes", id, len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: ranking not deterministic", id)
			}
		}
		seen := map[*nodeState]bool{}
		for _, st := range a {
			if seen[st] {
				t.Fatalf("%s: node repeated in ranking", id)
			}
			seen[st] = true
		}
		if owner := m.ownerOf(id); owner != nil && a[0] != owner {
			t.Fatalf("%s: owner %s not first, got %s", id, owner.node.ID, a[0].node.ID)
		}
	}
	if m.ownerOf("foreign-r-000001") != nil || m.ownerOf("r-000004") != nil {
		t.Fatal("foreign/unprefixed IDs must have no owner")
	}
	// Replicas spread: over many IDs every node should appear in some
	// R=2 replica set.
	counts := map[string]int{}
	for i := 0; i < 200; i++ {
		for _, st := range m.replicaSet(randomishID(i), 2) {
			counts[st.node.ID]++
		}
	}
	for _, id := range []string{"n1", "n2", "n3", "n4", "n5"} {
		if counts[id] == 0 {
			t.Fatalf("node %s never placed: %v", id, counts)
		}
	}
}

func randomishID(i int) string {
	return "n" + string(rune('1'+i%5)) + "-r-" + string(rune('a'+i%23)) + string(rune('a'+(i/23)%23))
}

// TestOwnerLongestPrefix: node IDs containing dashes resolve by longest
// match, not first match.
func TestOwnerLongestPrefix(t *testing.T) {
	m := testMembership(t, "n1", "n1-east")
	if got := m.ownerOf("n1-east-r-000003"); got == nil || got.node.ID != "n1-east" {
		t.Fatalf("owner = %v, want n1-east", got)
	}
	if got := m.ownerOf("n1-r-000003"); got == nil || got.node.ID != "n1" {
		t.Fatalf("owner = %v, want n1", got)
	}
}

// TestReplicaSetClamps: R beyond the membership clamps; R ≤ 0 yields one.
func TestReplicaSetClamps(t *testing.T) {
	m := testMembership(t, "n1", "n2", "n3")
	if got := len(m.replicaSet("n1-r-000001", 7)); got != 3 {
		t.Fatalf("R=7 over 3 nodes → %d", got)
	}
	if got := len(m.replicaSet("n1-r-000001", 0)); got != 1 {
		t.Fatalf("R=0 → %d", got)
	}
}

// TestLiveByLoad: dead nodes are excluded and live ones order by
// in-flight load.
func TestLiveByLoad(t *testing.T) {
	m := testMembership(t, "n1", "n2", "n3")
	m.byID["n1"].inflight.Store(5)
	m.byID["n3"].inflight.Store(1)
	m.byID["n2"].alive.Store(false)
	live := liveByLoad(m.placement("n1-r-000001"))
	if len(live) != 2 || live[0].node.ID != "n3" || live[1].node.ID != "n1" {
		got := make([]string, len(live))
		for i, st := range live {
			got[i] = st.node.ID
		}
		t.Fatalf("liveByLoad = %v, want [n3 n1]", got)
	}
}
