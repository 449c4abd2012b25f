// Package testenv holds what tests need to know about how they were built.
package testenv
