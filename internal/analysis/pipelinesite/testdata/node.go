// Golden file for pipelinesite: loaded as internal/datanode, where only
// the exec method may admit, charge and refund.
package datanode

type limiter struct{}

func (limiter) Allow(float64) bool { return true }
func (limiter) Refund(float64)     {}

type admission struct{}

func (admission) submit(func()) bool { return true }

type replica struct{ limiter limiter }

type Node struct {
	admit admission
	rep   replica
}

func (n *Node) exec(cost float64) {
	n.admit.submit(func() {
		if !n.rep.limiter.Allow(cost) {
			return
		}
		n.rep.limiter.Refund(cost)
	})
}

func (n *Node) shortcut(cost float64) bool {
	if n.rep.limiter.Allow(cost) { // want "limiter.Allow outside Node.exec"
		n.rep.limiter.Refund(cost) // want "limiter.Refund outside Node.exec"
	}
	return n.admit.submit(func() {}) // want "admit.submit outside Node.exec"
}

// exec as a plain function is not the pipeline method.
func exec(r replica) bool {
	return r.limiter.Allow(1) // want "limiter.Allow outside Node.exec"
}
