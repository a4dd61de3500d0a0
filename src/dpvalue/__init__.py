"""Semivalue data valuation under differentially private gradient release."""
