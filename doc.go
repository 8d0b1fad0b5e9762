// Package repro reproduces "Contest of XML Lock Protocols" (Haustein,
// Härder, Luttenberger; VLDB 2006): an embedded XML database engine in the
// style of XTC with taDOM storage, SPLID node labeling, a pluggable lock
// manager (meta-synchronization), the paper's 11 XML lock protocols, and
// the TaMix benchmark framework that regenerates every figure of the
// paper's evaluation.
//
// An engine is opened in internal/core and its transactions run on the node
// manager it hands out (see core's ExampleOpen); the benchmark harness in this package's bench_test.go regenerates Figures
// 7-11, one benchmark per figure. See README.md, DESIGN.md, and
// EXPERIMENTS.md.
package repro
