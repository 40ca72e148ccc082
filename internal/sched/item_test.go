package sched

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

type testItem = Item[int, string]

// unfold runs Split to completion and describes every pushed continuation
// (its colors and size) and the leaf the worker ends on.
func unfold(it testItem, color int, colored bool) (pushed []string, leaf string) {
	var rest testItem
	for it.Split(color, colored, &rest) {
		pushed = append(pushed, fmt.Sprintf("%v:%d", rest.Colors(8).Colors(), rest.Size()))
	}
	switch {
	case it.Size() == 0:
		return pushed, "empty"
	case it.Single.Keys != nil:
		return pushed, fmt.Sprint("key ", it.Single.Keys[0])
	default:
		return pushed, "node " + it.Single.Nodes[0]
	}
}

func TestSplit(t *testing.T) {
	fourColors := testItem{Owner: "owner", Groups: []Group[int, string]{
		{Color: 0, Keys: []int{10, 11}},
		{Color: 1, Keys: []int{20}},
		{Color: 2, Keys: []int{30, 31, 32}},
		{Color: 3, Keys: []int{40, 41, 42, 43}},
	}}
	cases := []struct {
		name    string
		it      testItem
		color   int
		colored bool
		pushed  []string
		leaf    string
	}{
		{
			name: "colored descent into own color", it: fourColors, color: 3, colored: true,
			pushed: []string{"[0 1]:3", "[2]:3", "[3]:2", "[3]:1"},
			leaf:   "key 40",
		},
		{
			name: "colored descent when own color is in the first half", it: fourColors, color: 1, colored: true,
			pushed: []string{"[2 3]:7", "[0]:2"},
			leaf:   "key 20",
		},
		{
			name: "uncolored keeps the first half", it: fourColors, color: 3, colored: false,
			pushed: []string{"[2 3]:7", "[1]:1", "[0]:1"},
			leaf:   "key 10",
		},
		{
			name: "foreign color keeps the first half", it: fourColors, color: 7, colored: true,
			pushed: []string{"[2 3]:7", "[1]:1", "[0]:1"},
			leaf:   "key 10",
		},
		{
			name:   "spawn_nodes halves a node group",
			it:     testItem{Single: Group[int, string]{Color: 5, Nodes: []string{"a", "b", "c", "d", "e"}}},
			pushed: []string{"[5]:3", "[5]:1"},
			leaf:   "node a",
		},
		{
			name: "out-of-range colors advertise nothing",
			it: testItem{Groups: []Group[int, string]{
				{Color: -1, Nodes: []string{"x"}},
				{Color: 99, Nodes: []string{"y"}},
			}},
			pushed: []string{"[]:1"},
			leaf:   "node x",
		},
		{name: "leaf", it: testItem{Single: Group[int, string]{Keys: []int{7}}}, leaf: "key 7"},
		{name: "empty", it: testItem{}, leaf: "empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pushed, leaf := unfold(tc.it, tc.color, tc.colored)
			if !slices.Equal(pushed, tc.pushed) || leaf != tc.leaf {
				t.Errorf("pushed %v, leaf %q; want %v, %q", pushed, leaf, tc.pushed, tc.leaf)
			}
		})
	}
}

func describe(it testItem) string {
	gs := it.Groups
	if gs == nil {
		gs = []Group[int, string]{it.Single}
	}
	var parts []string
	for _, g := range gs {
		if g.Keys != nil {
			parts = append(parts, fmt.Sprintf("%d%v", g.Color, g.Keys))
		} else {
			parts = append(parts, fmt.Sprintf("%d%v", g.Color, g.Nodes))
		}
	}
	return strings.Join(parts, " ")
}

func TestGrouping(t *testing.T) {
	keyColor := func(k int) int { return k / 10 }
	nodeColor := func(n string) int { return int(n[0] - 'a') }
	colored := NewGrouper[int, string](4, true)
	plain := NewGrouper[int, string](4, false)
	keys := []int{21, 5, 22, -17, 99, 6, 23, 98}
	cases := []struct {
		name string
		got  testItem
		want string
	}{
		{"keys by first appearance, out-of-range colors grouped too",
			colored.GroupKeys("o", keys, keyColor), "2[21 22 23] 0[5 6] -1[-17] 9[99 98]"},
		{"one color stays inline", colored.GroupKeys("o", []int{31, 32}, keyColor), "3[31 32]"},
		{"uncolored is one group with the first key's color", plain.GroupKeys("o", keys, keyColor), "2[21 5 22 -17 99 6 23 98]"},
		{"nodes by first appearance", colored.GroupNodes([]string{"b1", "a1", "b2", "c1"}, nodeColor), "1[b1 b2] 0[a1] 2[c1]"},
		{"uncolored nodes", plain.GroupNodes([]string{"b1", "a1"}, nodeColor), "1[b1 a1]"},
	}
	for _, tc := range cases {
		if got := describe(tc.got); got != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, got, tc.want)
		}
	}

	// Predecessor keys alias the input when no regrouping is needed, but
	// ready nodes are always copied: the caller reuses its ready scratch.
	in := []int{31, 32}
	if it := colored.GroupKeys("o", in, keyColor); &it.Single.Keys[0] != &in[0] {
		t.Error("single-color GroupKeys copied its input")
	}
	nodes := []string{"a1", "a2"}
	it := colored.GroupNodes(nodes, nodeColor)
	nodes[0] = "clobbered"
	if it.Single.Nodes[0] != "a1" {
		t.Error("GroupNodes aliases its input")
	}
}
