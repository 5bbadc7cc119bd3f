#!/bin/sh
# Checks cmake/git_revision.cmake (the script named by $1): a clean
# checkout reports its 12-digit revision, a modified or an untracked
# file appends "-dirty", and a tree outside git reports "unknown".
set -eu
script=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# Never let git find a repository above the scratch directory.
GIT_CEILING_DIRECTORIES=$work
export GIT_CEILING_DIRECTORIES

revision_of() {
  cmake -DSOURCE_DIR="$1" -DOUTPUT="$work/revision.cpp" -P "$script"
  sed -n 's/.*kBuildRevision = "\(.*\)";/\1/p' "$work/revision.cpp"
}
expect() {
  got=$(revision_of "$1")
  if [ "$got" != "$2" ]; then
    echo "FAIL: $3: got '$got', want '$2'" >&2
    exit 1
  fi
}

mkdir "$work/plain"
expect "$work/plain" unknown "tree outside git"

repo=$work/repo
git init -q "$repo"
echo one > "$repo/file"
git -C "$repo" add file
git -C "$repo" -c user.name=test -c user.email=test@example.com \
  commit -q -m one
head=$(git -C "$repo" rev-parse --short=12 HEAD)
expect "$repo" "$head" "clean checkout"
echo two >> "$repo/file"
expect "$repo" "$head-dirty" "modified tracked file"
git -C "$repo" checkout -q -- file
expect "$repo" "$head" "restored checkout"
echo new > "$repo/untracked"
expect "$repo" "$head-dirty" "untracked file"
echo "git_revision.cmake: ok"
