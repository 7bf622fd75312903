package server

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"lpvs/internal/testenv"
)

var update = flag.Bool("update", false, "rewrite testdata/surface_*.golden from this build")

// The daemon's API surface — its route table and the metric families a
// scrape exposes after one tick — is pinned the way TestFlagSet pins
// lpvsd's flags: adding, renaming or removing an endpoint or a family
// means editing a golden, so the change shows up in review as a diff.
// internal/router pins the router's and a shard's the same way.

func TestRouteTableGolden(t *testing.T) {
	s, _ := testServer(t, -1)
	var b strings.Builder
	for _, rt := range s.routes() {
		b.WriteString(rt.Method + " " + rt.Path)
		if rt.Gated {
			b.WriteString(" gated")
		}
		b.WriteByte('\n')
	}
	testenv.Golden(t, filepath.Join("testdata", "surface_routes.golden"), b.String(), *update)
}

func TestMetricFamiliesGolden(t *testing.T) {
	_, ts := testServer(t, -1)
	postJSON(t, ts.URL+"/v1/report", validReport("dev-1"), nil)
	postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil)
	testenv.Golden(t, filepath.Join("testdata", "surface_metrics.golden"),
		testenv.TypeLines(scrapeMetrics(t, ts.URL)), *update)
}
