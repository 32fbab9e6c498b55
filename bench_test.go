// The go test -bench adapter of the workload table in internal/harness:
// every case of cmd/bench's quick sweep, under its cmd/bench name. The
// quick sweep is the one CI runs every benchmark of once; cmd/bench runs
// the full sweep. Run with:
//
//	go test -bench=. -benchmem .
package bagconsistency

import (
	"testing"

	"bagconsistency/internal/harness"
)

func Benchmark(b *testing.B) {
	for _, c := range harness.Cases() {
		if !c.Quick {
			continue
		}
		b.Run(c.Name, func(b *testing.B) {
			run, err := c.Setup()
			if err != nil {
				b.Fatal(err)
			}
			defer run.Close()
			b.ReportAllocs()
			for b.Loop() {
				if _, err := run.Op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
