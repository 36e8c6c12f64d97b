// Golden file for pipelinesite: outside internal/datanode the rule does
// not apply (the proxy charges its own limiter).
package proxy

type limiter struct{}

func (limiter) Allow(float64) bool { return true }

type Proxy struct{ limiter limiter }

func (p *Proxy) get() bool { return p.limiter.Allow(1) }
