package main

// `top` is a live terminal dashboard for an LPVS edge daemon: it polls
// /v1/status, /v1/fleet, /v1/slo and /metrics and renders a refreshing
// per-VC table with SLO burn state and the daemon's runtime
// self-telemetry — `top` for a video-scheduling edge.
//
//	top -addr http://localhost:8080            # refresh every 2s
//	top -addr http://localhost:8080 -once      # one frame, no ANSI
//	top -interval 500ms
//
// The dashboard is read-only: it only hits the daemon's ungated probe
// endpoints, so it stays usable while the daemon sheds load.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unicode/utf8"

	"lpvs/internal/server"
)

func top(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("top", stderr)
	addr := fs.String("addr", "http://localhost:8080", "base URL of the lpvsd daemon")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	once := fs.Bool("once", false, "render a single frame without ANSI clearing and exit")
	if err := parse(fs, args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return watch(ctx, stdout, *addr, *interval, *once)
}

// watch drives the poll/render loop; with once it renders exactly one
// frame (no screen clearing), which is also the integration-test mode.
func watch(ctx context.Context, out io.Writer, addr string, interval time.Duration, once bool) error {
	client := &http.Client{Timeout: 10 * time.Second}
	var prev *frame
	for {
		frame, err := fetchFrame(client, strings.TrimRight(addr, "/"))
		if err != nil {
			if once {
				return err
			}
			fmt.Fprintf(out, "lpvsctl top: %v (retrying in %v)\n", err, interval)
		} else {
			rates, restarted := counterRates(prev, frame)
			prev = frame
			if !once {
				fmt.Fprint(out, "\x1b[2J\x1b[H") // clear, home
			}
			render(out, frame, rates, restarted)
			if once {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(interval):
		}
	}
}

// frame is one dashboard snapshot.
type frame struct {
	at        time.Time
	status    server.StatusResponse
	fleet     server.FleetResponse
	slo       server.SLOResponse
	runtime   map[string]float64 // lpvs_go_* gauges from /metrics
	counters  map[string]float64 // unlabeled lpvs_*_total counters
	buildInfo string             // the lpvs_build_info series line (build identity)
	history   *server.HistoryResponse
}

// rateCounters are the cumulative counters rendered as per-second
// rates between two polls.
var rateCounters = []string{"lpvs_ticks_total", "lpvs_reports_total", "lpvs_shed_total"}

func fetchFrame(client *http.Client, base string) (*frame, error) {
	f := &frame{at: time.Now(), runtime: map[string]float64{}, counters: map[string]float64{}}
	if err := getJSON(client, base+"/v1/status", &f.status); err != nil {
		return nil, err
	}
	if err := getJSON(client, base+"/v1/fleet", &f.fleet); err != nil {
		return nil, err
	}
	if err := getJSON(client, base+"/v1/slo", &f.slo); err != nil {
		return nil, err
	}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	parseMetrics(f, string(body))
	// Range queries need the daemon's history store armed; older
	// daemons (or -history-window 0) simply have no sparklines.
	if f.status.HistoryWindowSec > 0 {
		var h server.HistoryResponse
		if err := getJSON(client, base+"/v1/history?series="+strings.Join(historySeries, ","), &h); err == nil {
			f.history = &h
		}
	}
	return f, nil
}

// parseMetrics folds one /metrics exposition into the frame: the
// lpvs_go_* runtime gauges, the unlabeled cumulative counters behind
// the rate row, and the build-info series line that identifies the
// process generation.
func parseMetrics(f *frame, body string) {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "lpvs_build_info{") {
			f.buildInfo = line
			continue
		}
		if !strings.HasPrefix(line, "lpvs_") || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		if strings.HasPrefix(name, "lpvs_go_") {
			f.runtime[name] = v
		} else if strings.HasSuffix(name, "_total") {
			f.counters[name] = v
		}
	}
}

// counterRates turns two consecutive polls' cumulative counters into
// per-second rates. A daemon restart between polls (different
// lpvs_build_info series, different start time, or any counter going
// backwards) resets the baseline instead of rendering negative rates:
// the frame after a restart shows no rates, exactly like the first.
func counterRates(prev, cur *frame) (rates map[string]float64, restarted bool) {
	if prev == nil {
		return nil, false
	}
	if prev.buildInfo != cur.buildInfo || prev.status.StartUnixSec != cur.status.StartUnixSec {
		return nil, true
	}
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return nil, false
	}
	rates = map[string]float64{}
	for _, name := range rateCounters {
		d := cur.counters[name] - prev.counters[name]
		if d < 0 {
			// Counter went backwards with an unchanged identity: a
			// restart faster than one poll interval. Reset, don't
			// extrapolate.
			return nil, true
		}
		rates[name] = d / dt
	}
	return rates, false
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// historySeries are the /v1/history prefixes behind the sparkline
// section: tick throughput, tail latency, heap, and shed pressure.
var historySeries = []string{
	"lpvs_ticks_total",
	"lpvs_tick_duration_seconds_p99",
	"lpvs_go_heap_alloc_bytes",
	"lpvs_shed_total",
}

func render(out io.Writer, f *frame, rates map[string]float64, restarted bool) {
	st := f.status
	uptime := time.Duration(st.UptimeMS) * time.Millisecond
	fmt.Fprintf(out, "lpvsctl top  %s  up %s  slot %d  workers %d\n",
		f.at.Format("15:04:05"), uptime.Round(time.Second), st.Slot, st.Workers)
	fmt.Fprintf(out, "devices %d  pending %d  selected %d  degraded %d  shed %d\n",
		st.Devices, st.PendingReports, st.LastSelected, st.DegradedTicks, st.ShedRequests)
	switch {
	case restarted:
		fmt.Fprintf(out, "rates: daemon restarted, rebasing\n")
	case rates != nil:
		fmt.Fprintf(out, "rates: ticks %.2f/s  reports %.2f/s  shed %.2f/s\n",
			rates["lpvs_ticks_total"], rates["lpvs_reports_total"], rates["lpvs_shed_total"])
	}
	if len(f.runtime) > 0 {
		fmt.Fprintf(out, "go: heap %s  goroutines %.0f  gc-p99 %s  sched-p99 %s\n",
			bytesHuman(f.runtime["lpvs_go_heap_alloc_bytes"]),
			f.runtime["lpvs_go_goroutines"],
			secondsHuman(f.runtime["lpvs_go_gc_pause_p99_seconds"]),
			secondsHuman(f.runtime["lpvs_go_sched_latency_p99_seconds"]))
	}

	fmt.Fprintf(out, "\nSLO                 STATE  BURN-FAST  BURN-SLOW  BUDGET-LEFT\n")
	sorted := f.slo.Objectives
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, o := range sorted {
		state := "ok"
		if o.Alarming {
			state = "ALARM"
		}
		fast, slow := 0.0, 0.0
		if len(o.Windows) == 2 {
			fast, slow = o.Windows[0].BurnRate, o.Windows[1].BurnRate
		}
		fmt.Fprintf(out, "%-19s %-6s %9.2f  %9.2f  %10.0f%%\n",
			o.Name, state, fast, slow, 100*o.BudgetRemaining)
	}

	fmt.Fprintf(out, "\nCHANNEL        DEV  PEND  ADM  ELIG  SEL  TCHUNKS  GAMMA  DRIFT\n")
	for _, c := range f.fleet.Channels {
		fmt.Fprintf(out, "%-12s %5d %5d %4d %5d %4d %8d  %.3f  %.3f\n",
			clip(c.Channel, 12), c.Devices, c.PendingReports, c.Admitted,
			c.Eligible, c.Selected, c.TransformedChunks, c.GammaMean, c.GammaDrift)
	}

	// The header is printed at the rows' own widths, so each name sits
	// over its column.
	fmt.Fprintf(out, "\n%-12s %6s %5s %8s %9s\n", "STREAM", "TICKS", "DEGR", "LAST-MS", "LAST-REQ")
	for _, s := range f.fleet.Streams {
		fmt.Fprintf(out, "%-12s %6d %5d %8.2f %9d\n",
			clip(s.Key, 12), s.Ticks, s.DegradedTicks, 1000*s.LastWallSeconds, s.LastRequests)
	}
	if f.fleet.VCLabelBudget == 0 {
		fmt.Fprintf(out, "\nper-VC metric series off (-vc-label-budget 0)\n")
	} else if f.fleet.SeriesDropped > 0 {
		fmt.Fprintf(out, "\nseries dropped over label budget: %d\n", f.fleet.SeriesDropped)
	}

	if f.history != nil && len(f.history.Series) > 0 {
		window := time.Duration(f.history.WindowSec * float64(time.Second))
		fmt.Fprintf(out, "\nHISTORY (last %s, %d samples)\n", window.Round(time.Second), f.history.Samples)
		for _, s := range f.history.Series {
			last := 0.0
			if n := len(s.Points); n > 0 {
				last = s.Points[n-1].Value
			}
			fmt.Fprintf(out, "%-32s %s  last %.4g\n", clip(s.Key(), 32), sparkline(s.Points), last)
		}
	}
}

// clip truncates a label to n runes for column alignment, marking the
// cut with an ellipsis.
func clip(s string, n int) string {
	if utf8.RuneCountInString(s) <= n {
		return s
	}
	return string([]rune(s)[:n-1]) + "…"
}

func bytesHuman(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

func secondsHuman(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}
