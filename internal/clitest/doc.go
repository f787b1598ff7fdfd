// Package clitest smoke-tests the repository's command-line binaries
// as real OS processes. It pins the uniform exit-code contract every
// cmd follows — 0 for a successful run, 1 for a runtime failure, 2
// for a usage error (unknown flags, unexpected positional arguments,
// invalid flag combinations) — and the fleet end-to-end oracle: a
// limit-fleet report produced across real worker processes is
// byte-identical to the single-process limit-chaos report, including
// under worker self-chaos.
//
// Its tests build the binaries once per test run into a temp
// directory (skipped under -short). Its one library file holds the
// golden byte-compare the cmd packages' in-process tests share.
package clitest
