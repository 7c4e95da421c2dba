package sim

// Ledger exposes the last run's integer energy ledger — charged cycles
// by fetch memory, class and data memory — to the external tests.
func (m *Machine) Ledger() ledger { return m.led }
