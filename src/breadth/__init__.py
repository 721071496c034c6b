"""Reasoning-strategy toolkit: chain-of-thought, iterative refinement, and
breadth-style majority voting over any chat-completion backend.

Subpackages by concern:

- core:        shared domain types (questions, answers, traces, configs, votes)
- llmio:       generation backends (live HTTP, scripted mock, record/replay)
- store:       every persisted file: append-only logs, replaced files, replay store
- reformulate: semantic-preserving rewrites of questions and prompts
- strategy:    the reasoning engines (CoT, deep iteration, breadth family)
- extract:     answer parsing and majority voting
- diversity:   prediction-entropy factor study
- votemodel:   analytic / Monte-Carlo models of vote accuracy
- bench:       dataset loading, synthetic generators, experiment runner
- cli:         command-line entry point
"""

__version__ = "0.1.0"
