package telemetry

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus emits every registered family in the Prometheus text
// exposition format (version 0.0.4): HELP and TYPE headers, one line per
// series, histograms as cumulative le-buckets plus _sum and _count.
// Families appear in name order and series in label-value order, so the
// output is deterministic given the metric values — the property the
// golden test pins.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(strings.ReplaceAll(f.help, "\n", " "))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind)
		bw.WriteByte('\n')
		for _, s := range f.sortedSeries() {
			if s.h == nil {
				writeSample(bw, f.name, f.labelKeys, s.labelVals, "", "", s.value())
				continue
			}
			counts := s.h.snapshot()
			var cum uint64
			for i, c := range counts {
				cum += c
				le := "+Inf"
				if i < len(s.h.bounds) {
					le = formatFloat(s.h.bounds[i])
				}
				writeSampleEx(bw, f.name+"_bucket", f.labelKeys, s.labelVals, "le", le, float64(cum), s.h.BucketExemplar(i))
			}
			writeSample(bw, f.name+"_sum", f.labelKeys, s.labelVals, "", "", s.h.Sum())
			writeSample(bw, f.name+"_count", f.labelKeys, s.labelVals, "", "", float64(cum))
		}
	}
	return bw.Flush()
}

// writeSample emits one exposition line; extraKey/extraVal append a
// trailing label (the histogram le) when non-empty.
func writeSample(bw *bufio.Writer, name string, keys, vals []string, extraKey, extraVal string, v float64) {
	writeSampleEx(bw, name, keys, vals, extraKey, extraVal, v, nil)
}

// writeSampleEx is writeSample with an optional OpenMetrics-style
// exemplar suffix on the same line:
//
//	name_bucket{le="0.1"} 42 # {trace_id="deadbeefcafef00d"} 0.093 1723111845.2
//
// The classic 0.0.4 format has no exemplar syntax, so the suffix is
// emitted only when an exemplar exists — untraced registries expose
// byte-identical output to before (the golden test's contract) — and
// the scrape-side parser strips it.
func writeSampleEx(bw *bufio.Writer, name string, keys, vals []string, extraKey, extraVal string, v float64, ex *Exemplar) {
	bw.WriteString(name)
	if len(keys) > 0 || extraKey != "" {
		bw.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(k)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(vals[i]))
			bw.WriteByte('"')
		}
		if extraKey != "" {
			if len(keys) > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(extraKey)
			bw.WriteString(`="`)
			bw.WriteString(extraVal)
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(v))
	if ex != nil {
		bw.WriteString(` # {trace_id="`)
		bw.WriteString(escapeLabel(ex.TraceID))
		bw.WriteString(`"} `)
		bw.WriteString(formatFloat(ex.Value))
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatFloat(float64(ex.Time.UnixNano())/1e9, 'f', 3, 64))
	}
	bw.WriteByte('\n')
}

// formatFloat renders a value the shortest way that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// Handler serves the registry over HTTP — the /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
