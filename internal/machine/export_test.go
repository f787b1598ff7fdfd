package machine

// SetEpochCheck installs f as the check Run makes after every RunCore
// that left the kernel's epoch unmoved; nil removes it. Call it only
// while no machine runs.
func SetEpochCheck(f func(m *Machine, ats []uint64, nextWake uint64)) { epochCheck = f }
