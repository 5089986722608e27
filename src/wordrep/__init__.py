"""Word-representable graphs: words and the graph each represents (its
alternating pairs, found in one sweep by ``graph_of_word`` and
``represents``), occurrence-based functions, the Cartesian-product
constructions built from them, and a brute-force search oracle for
representation numbers.  ``__all__`` is the whole public API: each module
declares its own names in its ``__all__``, and the package joins them."""

from . import constructions, graphs, obf, search, words
from .words import *
from .obf import *
from .graphs import *
from .constructions import *
from .search import *

__all__ = [*words.__all__, *obf.__all__, *graphs.__all__, *constructions.__all__, *search.__all__]

__version__ = "0.1.0"
