// Package telemetry turns the serving daemon's request stream into
// operator-facing signals: which canonical fingerprints are hot, and
// what the process looked like the moment it tipped into overload.
//
// Two dependency-free pieces compose:
//
//   - Sketch / Workload: a deterministic SpaceSaving heavy-hitter
//     summary over canonical fingerprints with per-key hit/miss/shed
//     counts and service-time accumulators — the primitive a
//     fingerprint-sharded cluster needs before it can do hot-key
//     replication. Exposed as /debug/workload JSON and a
//     bagcd_hotkey_* top-K metrics block.
//   - Recorder: an overload flight recorder that captures a bounded
//     pprof CPU+heap profile and the current workload/trace state
//     into a rotated on-disk directory when queue fill or p99 crosses
//     a threshold, linked to slow traces by trace id.
//
// Everything here is observation-only: no type in this package ever
// changes a verdict, a cache key, or the wire format.
package telemetry
