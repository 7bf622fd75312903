package router

import (
	"flag"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"lpvs/internal/server"
	"lpvs/internal/testenv"
)

var update = flag.Bool("update", false, "rewrite testdata/surface_*.golden from this build")

// The router's route table and the metric families a router and a
// shard expose after one federated tick are pinned like the edge
// daemon's (internal/server/surface_test.go): a new endpoint or family
// means editing a golden.

func TestRouteTableGolden(t *testing.T) {
	_, ts := newShard(t, "n1", server.Config{})
	rt, _ := newRouter(t, map[string]string{"n1": ts.URL})
	var b strings.Builder
	for _, r := range rt.routes() {
		b.WriteString(r.Method + " " + r.Path)
		if r.Gated {
			b.WriteString(" gated")
		}
		b.WriteByte('\n')
	}
	testenv.Golden(t, filepath.Join("testdata", "surface_routes.golden"), b.String(), *update)
}

func TestMetricFamiliesGolden(t *testing.T) {
	_, shardTS := newShard(t, "n1", server.Config{})
	_, routerTS := newRouter(t, map[string]string{"n1": shardTS.URL})
	postJSON(t, routerTS.URL+"/v1/report", report(1, ""), nil)
	if resp := postJSON(t, routerTS.URL+"/v1/tick", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("tick status %d", resp.StatusCode)
	}
	for name, base := range map[string]string{"router": routerTS.URL, "shard": shardTS.URL} {
		testenv.Golden(t, filepath.Join("testdata", "surface_metrics_"+name+".golden"), scrapeTypes(t, base), *update)
	}
}

// scrapeTypes scrapes base's /metrics and returns its metric families.
func scrapeTypes(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return testenv.TypeLines(string(body))
}
