package obs

import "sort"

// FamilySnapshot is one metric family frozen at a point in time: the
// structured counterpart of a WriteText exposition block. The history
// sampler (internal/obs/history) and the flight recorder build on this
// instead of re-parsing the text format.
type FamilySnapshot struct {
	Name    string
	Type    string    // TypeCounter, TypeGauge, or TypeHistogram
	Labels  []string  // label names; empty for plain metrics
	Buckets []float64 // histogram upper bounds (without +Inf)
	Series  []SeriesSnapshot
}

// SeriesSnapshot is one (metric, label-values) series inside a
// FamilySnapshot. For histograms BucketCounts is cumulative — each
// entry counts observations at or below the matching Buckets bound,
// mirroring the rendered exposition rather than the internal
// non-cumulative storage.
type SeriesSnapshot struct {
	LabelValues []string
	Value       float64 // counter/gauge value (or fn() result)

	// Histogram-only fields.
	BucketCounts []uint64
	Count        uint64
}

// Gather snapshots every family in the registry, sorted by family name
// with series in label-key order — the same ordering WriteText renders.
// It takes the same short-lived locks as a scrape, so calling it on a
// ticker does not contend with hot-path metric mutations.
func (r *Registry) Gather() []FamilySnapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		out = append(out, f.snapshot())
	}
	return out
}

func (f *family) snapshot() FamilySnapshot {
	fs := FamilySnapshot{
		Name:    f.name,
		Type:    f.typ,
		Labels:  f.labels,
		Buckets: f.buckets,
	}

	f.mu.Lock()
	fn := f.fn
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	all := make([]*series, 0, len(keys))
	for _, k := range keys {
		all = append(all, f.series[k])
	}
	f.mu.Unlock()

	if fn != nil {
		// Func-backed families have exactly one unlabeled series whose
		// value is computed at gather time, like at scrape time.
		fs.Series = []SeriesSnapshot{{Value: fn()}}
		return fs
	}

	fs.Series = make([]SeriesSnapshot, 0, len(all))
	for _, s := range all {
		ss := SeriesSnapshot{LabelValues: s.labelVals}
		if f.typ == TypeHistogram {
			ss.BucketCounts = make([]uint64, len(s.bucketCounts))
			var cum uint64
			for i := range s.bucketCounts {
				cum += s.bucketCounts[i].Load()
				ss.BucketCounts[i] = cum
			}
			ss.Count = s.count.Load()
		} else {
			ss.Value = s.value()
		}
		fs.Series = append(fs.Series, ss)
	}
	return fs
}
