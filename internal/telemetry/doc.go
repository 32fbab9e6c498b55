// Package telemetry holds the serving daemon's overload flight recorder
// and the per-request capture carrier for the Checker's check observer.
//
//   - Recorder: samples queue fill and a windowed p99 of end-to-end
//     latency, and when either crosses its threshold captures a bounded
//     pprof CPU+heap profile and the trace rings into a rotated on-disk
//     directory, linked to slow traces by trace id. Its status is served
//     under /healthz.
//   - Capture / RecordCheck: a context-carried slot the check observer
//     writes a global check's canonical fingerprint and cache outcome
//     into. perfbench's in-process replay, which installs RecordCheck,
//     is their one caller.
//
// Everything here is observation-only: no type in this package ever
// changes a verdict, a cache key, or the wire format.
package telemetry
