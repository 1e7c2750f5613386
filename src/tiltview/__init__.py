"""Wave-optics resolution analysis and free-view reconstruction for
lenslet-array integral imaging."""
