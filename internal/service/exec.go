package service

import (
	"context"

	"repro/internal/campaign"
)

// ExecOptions and Execute forward to the one executor in
// internal/campaign. They remain because bench/trace_service.go calls
// them and a PR that edits code may not edit the benchmark; the daemon
// itself calls campaign.Execute.
type ExecOptions = campaign.RunOptions

// Execute is campaign.Execute.
func Execute(ctx context.Context, p *campaign.Plan, opts ExecOptions) (*campaign.Outcome, error) {
	return campaign.Execute(ctx, p, opts)
}
