// Package shard is a one-engine shim kept only because the end-to-end
// benchmark's replay (perfbench/replay.go) compiles against it. Every
// method delegates to a single engine.Engine; ufpserve does not use the
// package. The next benchmark change points the replay at engine.Engine
// and deletes this package.
package shard

import (
	"context"

	"truthfulufp/internal/engine"
	"truthfulufp/internal/graph"
	"truthfulufp/internal/session"
)

// Config configures a Router. It has no fields: the router is one
// engine at its default configuration.
type Config struct{}

// Router forwards jobs and session calls to one engine.
type Router struct{ eng *engine.Engine }

// New starts the router's engine.
func New(Config) *Router { return &Router{eng: engine.New(engine.Config{})} }

// Do runs the job on the engine.
func (r *Router) Do(ctx context.Context, job engine.Job) (*engine.Result, error) {
	return r.eng.Do(ctx, job)
}

// Register creates a session on the engine's session manager.
func (r *Router) Register(g *graph.Graph, eps float64) (*session.Session, error) {
	return r.eng.Sessions().Register(g, eps)
}

// Session returns the live session under id.
func (r *Router) Session(id string) (*session.Session, bool) { return r.eng.Sessions().Get(id) }

// Close shuts the engine down.
func (r *Router) Close() { r.eng.Close() }
