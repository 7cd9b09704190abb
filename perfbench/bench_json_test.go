package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// BENCHMARK.json must declare exactly the workloads and metrics this
// program runs and prints, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		defs     []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.defs) {
			t.Errorf("%d metrics declared, program reports %d", len(c.declared), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.declared[i].Name != d.name || c.declared[i].Unit != d.unit {
				t.Errorf("metric %d declared %s [%s], program reports %s [%s]",
					i, c.declared[i].Name, c.declared[i].Unit, d.name, d.unit)
			}
		}
	}
}

func TestCollectRejectsMissingAndUndeclared(t *testing.T) {
	defs := []metricDef{{"a", "ms"}, {"b", "s"}}
	if _, err := collect(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := collect(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("undeclared metric accepted")
	}
	m, err := collect(defs, map[string]float64{"a": 1, "b": 2})
	if err != nil || m["b"].Unit != "s" || m["a"].Value != 1 {
		t.Errorf("collect = %v, %v", m, err)
	}
}
