package storage

// WithRedoShards sets the redo parallelism for the external test package
// (the serial-vs-parallel redo oracle and BenchmarkRecovery import tamix,
// which imports this package, so they cannot be in-package tests).
func (o Options) WithRedoShards(n int) Options {
	o.redoShards = n
	return o
}
