"""Synthetic ground-plane camera and the digit/line recognition pipeline.

The frame renderer is ``wardcart.vision.render.render``; the package does
not re-export it, so ``wardcart.vision.render`` stays the submodule.
"""
