package persist

import (
	"bytes"
	"testing"

	"netcut/internal/device"
	"netcut/internal/profiler"
	"netcut/internal/trim"
	"netcut/internal/zoo"
)

// benchFile captures a warm state shaped like a planner's after it has
// planned the paper zoo: plans and measurements for every network and
// every blockwise cut, a profile table per network, and the cut records
// with their deduplicated parents. A short measurement protocol keeps
// set-up fast; it changes values, not the size or shape of any section.
func benchFile(b *testing.B) *File {
	b.Helper()
	dev := device.New(device.Xavier())
	prof, err := profiler.New(dev, profiler.Protocol{WarmupRuns: 4, TimedRuns: 16}, 1)
	if err != nil {
		b.Fatal(err)
	}
	trim.PurgeCutCache()
	b.Cleanup(trim.PurgeCutCache)
	for _, g := range zoo.Paper7() {
		prof.Profile(g)
		prof.Measure(g)
		trns, err := trim.EnumerateBlockwise(g, trim.DefaultHead, true)
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range trns {
			prof.Measure(tr.Graph)
		}
	}
	return &File{
		Seed: 1,
		Planners: []PlannerState{{
			Device:       dev.Config().Name,
			Calibration:  dev.Fingerprint(),
			Seed:         1,
			WarmupRuns:   4,
			TimedRuns:    16,
			Plans:        dev.SnapshotPlans(),
			Measurements: prof.SnapshotMeasurements(),
			Tables:       prof.SnapshotTables(),
		}},
		Cuts: CaptureCuts(),
	}
}

// BenchmarkSection times the snapshot codec one section at a time:
// encode frames that section alone inside the envelope, decode splits
// that snapshot and decodes its one frame. Each op's bytes are the
// encoded snapshot, so MB/s compares sections.
func BenchmarkSection(b *testing.B) {
	f := benchFile(b)
	for _, sec := range f.sections()[1:] { // meta carries no records
		raw := encodeSections([]section{sec})
		b.Run(sec.ID.Kind.String()+"/encode", func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			var buf bytes.Buffer
			for b.Loop() {
				buf.Reset()
				buf.Write(encodeSections([]section{sec}))
			}
		})
		b.Run(sec.ID.Kind.String()+"/decode", func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for b.Loop() {
				frames, err := splitFrames(raw)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := decodeFrame(frames[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
