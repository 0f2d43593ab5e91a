#!/bin/sh
# Count non-blank, non-comment C++ lines per directory.
#
# A line counts when something other than whitespace is left after
# `//` and `/* */` comments are stripped (string and character literals
# are kept whole, so a `//` inside a string is code). Every .cc, .hh,
# .cpp and .h file under a directory, recursively, counts toward it.
#
# Usage: scripts/sloc.sh [dir...]
#   With no arguments: each directory under src/, then tools, bench,
#   tests and examples. Run it from the repository root. Prints one
#   "<lines> <dir>" row per directory.
set -e
if [ $# -eq 0 ]; then
    set -- src/*/ tools bench tests examples
fi
for dir in "$@"; do
    dir=${dir%/}
    [ -d "$dir" ] || { echo "sloc: no directory '$dir'" >&2; exit 1; }
    n=$(find "$dir" -type f \( -name '*.cc' -o -name '*.hh' \
            -o -name '*.cpp' -o -name '*.h' \) -print | sort \
        | xargs cat /dev/null | awk '
        {
            out = ""
            prev = ""
            len = length($0)
            i = 1
            while (i <= len) {
                c = substr($0, i, 1)
                c2 = substr($0, i, 2)
                if (block) {
                    if (c2 == "*/") { block = 0; i += 2 } else i++
                    continue
                }
                if (quote != "") {
                    out = out c
                    if (c == "\\") { out = out substr($0, i + 1, 1); i += 2; continue }
                    if (c == quote) quote = ""
                    i++
                    continue
                }
                if (c2 == "//") break
                if (c2 == "/*") { block = 1; out = out " "; i += 2; continue }
                # A quote after an identifier character is a digit
                # separator (0xffff'\''ffff), not a character literal.
                if (c == "\"" || (c == "'\''" && prev !~ /[0-9A-Za-z_]/))
                    quote = c
                out = out c
                prev = c
                i++
            }
            quote = "" # Literals never span lines here.
            if (out ~ /[^ \t\r]/) n++
        }
        END { print n + 0 }')
    echo "$n $dir"
done
