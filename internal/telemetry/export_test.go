package telemetry

// PollAll runs one polling sweep, for tests that drive the sweep by hand.
func (c *Collector) PollAll() { c.pollAll() }
